package engine

import "fmt"

// Residency is where a circuit's three per-proof residents — proving
// key, constraint matrices, witness — live: all in RAM, or all on disk.
type Residency int

const (
	// Resident keeps the key, the CSR and the witness in RAM.
	Resident Residency = iota
	// OutOfCore leaves the key in its raw file, set up straight to disk
	// and walked in bounded windows by every prove, proves against the
	// digest's CSR section file and solves into a paged witness file; the
	// cache keeps only the circuit's solver program.
	OutOfCore
)

func (r Residency) String() string {
	return [...]string{"resident", "out-of-core"}[r]
}

// Plan is the residency decision for one circuit on one engine, made
// once when its keys are set up or loaded from disk and carried on the
// KeyPair from then on.
type Plan struct {
	Residency Residency
	// WitnessPageBytes sizes the paged witness's resident page cache
	// (r1cs.NewWitnessFile enforces its own small floor); zero unless
	// OutOfCore.
	WitnessPageBytes int64
	// Reason is the comparison that decided, for logs and reports.
	Reason string
}

// planResidency is the whole policy: a circuit whose raw proving-key
// encoding (groth16.RawPKSizeBytes) exceeds the budget proves fully
// out-of-core, and a quarter of the budget then sizes the witness page
// cache. A solver-only circuit plans the same way; resident, its prove
// then reports that it needs the full system resent.
func planResidency(rawKey, budget int64) Plan {
	if budget <= 0 {
		return Plan{Reason: "no memory budget set"}
	}
	if rawKey <= budget {
		return Plan{Reason: fmt.Sprintf("raw key %d B vs budget %d B: fits", rawKey, budget)}
	}
	return Plan{OutOfCore, budget / 4, fmt.Sprintf("raw key %d B vs budget %d B: out-of-core", rawKey, budget)}
}
