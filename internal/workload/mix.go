// Package workload generates the enterprise workloads and data
// characteristics of the paper's §2: query-type mixes for OLTP, OLAP and
// TPC-C-like systems (Figure 1), table-population profiles of a synthetic
// SAP Business Suite customer system (Figures 2 and 3), distinct-value
// distributions of inventory-management and financial-accounting columns
// (Figure 4), plus value generators with controlled unique fractions.
package workload

import (
	"fmt"
	"math/rand"
)

// QueryKind enumerates the operation classes of Figure 1.
type QueryKind int

const (
	Lookup QueryKind = iota
	TableScan
	RangeSelect
	Insert
	Modification
	Delete
	numQueryKinds
)

// String returns the Figure 1 label.
func (k QueryKind) String() string {
	switch k {
	case Lookup:
		return "lookup"
	case TableScan:
		return "table-scan"
	case RangeSelect:
		return "range-select"
	case Insert:
		return "insert"
	case Modification:
		return "modification"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// Mix is a probability distribution over query kinds.
type Mix struct {
	Name    string
	Weights [numQueryKinds]float64
}

// WriteRatio returns the total probability of write operations.
func (m Mix) WriteRatio() float64 {
	return m.Weights[Insert] + m.Weights[Modification] + m.Weights[Delete]
}

// ReadRatio returns 1 - WriteRatio over the declared weights.
func (m Mix) ReadRatio() float64 {
	return m.Weights[Lookup] + m.Weights[TableScan] + m.Weights[RangeSelect]
}

// Sample draws one query kind.
func (m Mix) Sample(rng *rand.Rand) QueryKind {
	x := rng.Float64()
	for k := QueryKind(0); k < numQueryKinds; k++ {
		if x < m.Weights[k] {
			return k
		}
		x -= m.Weights[k]
	}
	return Lookup
}

// The mixes below reproduce Figure 1's query distributions.  The paper
// reports the aggregates precisely — OLTP >80% reads with ~17% writes,
// OLAP >90% reads with ~7% writes, TPC-C 46% writes — and shows the
// per-kind split graphically; the per-kind weights here are read off the
// figure and normalized to those aggregates.
var (
	// OLTPMix is the transactional-system distribution of Figure 1.
	OLTPMix = Mix{Name: "OLTP", Weights: [numQueryKinds]float64{
		Lookup:       0.48,
		TableScan:    0.12,
		RangeSelect:  0.23,
		Insert:       0.09,
		Modification: 0.06,
		Delete:       0.02,
	}}
	// OLAPMix is the analytical-system distribution of Figure 1.
	OLAPMix = Mix{Name: "OLAP", Weights: [numQueryKinds]float64{
		Lookup:       0.25,
		TableScan:    0.40,
		RangeSelect:  0.28,
		Insert:       0.04,
		Modification: 0.02,
		Delete:       0.01,
	}}
	// TPCCMix approximates the TPC-C benchmark's 46% write share that
	// Figure 1 contrasts with the customer-system analysis.
	TPCCMix = Mix{Name: "TPC-C", Weights: [numQueryKinds]float64{
		Lookup:       0.36,
		TableScan:    0.04,
		RangeSelect:  0.14,
		Insert:       0.26,
		Modification: 0.18,
		Delete:       0.02,
	}}
)

// Mixes lists the built-in distributions of Figure 1.
func Mixes() []Mix { return []Mix{OLTPMix, OLAPMix, TPCCMix} }
