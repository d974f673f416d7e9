// Package bench is the experiment harness for the paper's evaluation (§2
// and §7): a registry of named experiments, one per figure and table, each
// of which regenerates the corresponding rows/series at a configurable
// scale.
//
// Absolute numbers differ from the paper (Go on this host vs ICC on a 2011
// Xeon), so every experiment reports cycles/tuple at a configurable clock
// alongside wall times.
package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Scale configures experiment size relative to the paper.
type Scale struct {
	// Factor multiplies the paper's tuple counts (1.0 = paper scale,
	// NM = 100M for Figures 7/8).  Default 0.05.
	Factor float64
	// Threads is the parallel worker budget (0 = GOMAXPROCS).
	Threads int
	// HZ converts wall time to cycles (default 3.3e9, the paper's clock).
	HZ float64
	// NC is the assumed column count when converting per-column costs to
	// table-level update rates (paper: 300).
	NC int
	// LLCBytes is the host last-level cache size for model comparisons
	// (0 = detect, falling back to 32 MB).
	LLCBytes int
}

// Defaults fills zero fields.
func (s Scale) Defaults() Scale {
	if s.Factor <= 0 {
		s.Factor = 0.05
	}
	if s.Threads <= 0 {
		s.Threads = runtime.GOMAXPROCS(0)
	}
	if s.HZ <= 0 {
		s.HZ = 3.3e9
	}
	if s.NC <= 0 {
		s.NC = 300
	}
	if s.LLCBytes <= 0 {
		s.LLCBytes = DetectLLCBytes()
	}
	return s
}

// N scales a paper-sized tuple count, keeping at least 1000 tuples.
func (s Scale) N(paperCount int) int {
	n := int(float64(paperCount) * s.Factor)
	if n < 1000 {
		n = 1000
	}
	return n
}

// DetectLLCBytes reads the last-level cache size from sysfs, falling back
// to 32 MB.
func DetectLLCBytes() int {
	for _, idx := range []string{"index3", "index2"} {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := 1
		if strings.HasSuffix(s, "K") {
			mult, s = 1024, strings.TrimSuffix(s, "K")
		} else if strings.HasSuffix(s, "M") {
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v * mult
		}
	}
	return 32 << 20
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the registry key, e.g. "fig7".
	ID string
	// Title names the paper artifact, e.g. "Figure 7".
	Title string
	// Description says what the artifact shows.
	Description string
	// Run writes the regenerated rows/series to w.
	Run func(w io.Writer, s Scale) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Registry lists all experiments in registration order.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// tableWriter prints fixed-width columns.
type tableWriter struct {
	w      io.Writer
	widths []int
	err    error
}

func newTable(w io.Writer, widths ...int) *tableWriter {
	return &tableWriter{w: w, widths: widths}
}

func (t *tableWriter) row(cells ...string) {
	if t.err != nil {
		return
	}
	var b strings.Builder
	for i, c := range cells {
		w := 12
		if i < len(t.widths) {
			w = t.widths[i]
		}
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", w, c)
	}
	_, t.err = fmt.Fprintln(t.w, strings.TrimRight(b.String(), " "))
}

func (t *tableWriter) rule() {
	if t.err != nil {
		return
	}
	total := 0
	for _, w := range t.widths {
		total += w + 2
	}
	_, t.err = fmt.Fprintln(t.w, strings.Repeat("-", total))
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func human(n int) string {
	switch {
	case n >= 1_000_000_000 && n%1_000_000_000 == 0:
		return fmt.Sprintf("%dB", n/1_000_000_000)
	case n >= 1_000_000:
		return fmt.Sprintf("%.3gM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.3gK", float64(n)/1e3)
	default:
		return strconv.Itoa(n)
	}
}
