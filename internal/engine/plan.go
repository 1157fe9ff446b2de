package engine

import "fmt"

// Residency is where a circuit's three per-proof residents — proving
// key, constraint matrices, witness — live. The tiers are ordered: each
// one puts strictly more on disk than the one before, and a smaller
// memory budget never selects an earlier one.
type Residency int

const (
	// Resident keeps the key, the CSR and the witness in RAM.
	Resident Residency = iota
	// KeyStreamed leaves the key in its raw file, set up straight to disk
	// and walked in bounded windows by every prove; CSR and witness stay
	// in RAM.
	KeyStreamed
	// OutOfCore also proves against the digest's CSR section file and
	// solves into a paged witness file; the cache keeps only the circuit's
	// solver program.
	OutOfCore
)

func (r Residency) String() string {
	return [...]string{"resident", "key-streamed", "out-of-core"}[r]
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

// sizes is what a plan weighs: the raw proving-key encoding
// (groth16.RawPKSizeBytes), the CSR section-file encoding
// (r1cs.CSRRawSizeBytes, a faithful proxy for the resident arrays) and
// one full wire assignment. A solver-only circuit has no CSR to measure
// or to prove against except its section file.
type sizes struct {
	rawKey, csr, witness int64
	solverOnly           bool
}

// planResidency is the whole policy. The key streams when its raw
// encoding exceeds the budget; past that, CSR and witness go to disk too
// when together they exceed the same budget, and a quarter of it then
// sizes the witness page cache.
func planResidency(sz sizes, budget int64) Plan {
	if budget <= 0 {
		return Plan{Reason: "no memory budget set"}
	}
	key := fmt.Sprintf("raw key %d B vs budget %d B", sz.rawKey, budget)
	rest := fmt.Sprintf("CSR %d B + witness %d B", sz.csr, sz.witness)
	switch {
	case sz.rawKey <= budget:
		return Plan{Reason: key + ": fits"}
	case sz.solverOnly:
		return Plan{OutOfCore, budget / 4, key + ": streamed; the circuit is solver-only, its CSR is on disk already"}
	case sz.csr+sz.witness > budget:
		return Plan{OutOfCore, budget / 4, key + ": streamed; " + rest + " do not fit either"}
	}
	return Plan{KeyStreamed, 0, key + ": streamed; " + rest + " fit"}
}
