package wire

import (
	"slices"
	"strings"
	"testing"
)

// TestOpcodesCoverEveryOp pins the opcode registry to the protocol: every
// opcode in Opcodes() must have a real OpName (adding an opcode without
// naming it breaks the per-op metric series), the range must be dense up
// to opLast except for the unassigned numbers — exactly the retired ones,
// 0x1a (pin_epoch) the latest — names must be unique, and the current tail
// (OpReshard) must be included.  A new opcode that
// forgets to bump opLast or extend OpName fails here.
func TestOpcodesCoverEveryOp(t *testing.T) {
	ops := Opcodes()
	if len(ops) == 0 {
		t.Fatal("Opcodes() returned nothing")
	}
	if ops[0] != OpPing {
		t.Fatalf("Opcodes() starts at 0x%02x, want OpPing (0x%02x)", ops[0], OpPing)
	}
	if last := ops[len(ops)-1]; last != OpReshard {
		t.Fatalf("Opcodes() ends at 0x%02x, want OpReshard (0x%02x)", last, OpReshard)
	}
	holes := unassigned[:]
	if want := []uint8{0x09, 0x15, 0x18, 0x1a, 0x1d}; !slices.Equal(holes, want) {
		t.Fatalf("unassigned = % x, want % x", holes, want)
	}
	seen := make(map[string]uint8, len(ops))
	for i, op := range ops {
		if i > 0 && op != ops[i-1]+1 && !(op == ops[i-1]+2 && slices.Contains(holes, op-1)) {
			t.Fatalf("Opcodes() not dense: 0x%02x follows 0x%02x", op, ops[i-1])
		}
		if slices.Contains(holes, op) {
			t.Fatalf("Opcodes() lists the unassigned number 0x%02x", op)
		}
		name := OpName(op)
		if name == "" || strings.HasPrefix(name, "op_0x") {
			t.Errorf("opcode 0x%02x has no OpName (got %q)", op, name)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes 0x%02x and 0x%02x share name %q", prev, op, name)
		}
		seen[name] = op
	}
	// The fallback rendering is reserved for genuinely unknown opcodes.
	for _, op := range append([]uint8{0xfe}, holes...) {
		if got := OpName(op); !strings.HasPrefix(got, "op_0x") {
			t.Errorf("OpName(0x%02x) = %q, want op_0x fallback", op, got)
		}
	}
}
