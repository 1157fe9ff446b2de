package engine

import (
	"errors"
	"fmt"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/groth16"
)

// Proof aggregation: the engine owns the inner-pairing-product SRS and
// folds many same-key proofs into one O(log N) artifact
// (groth16.AggregateProofs). The SRS is created lazily at the first
// aggregation and regenerated with fresh trapdoors whenever a request
// exceeds its capacity; responses carry the SRS verifier key alongside
// the artifact, so a regrown SRS never strands an issued aggregate —
// each artifact verifies against the key it shipped with.

// maxAggregateProofs bounds one aggregation request (and therefore the
// SRS tables the engine will materialize: ~4·2·maxN curve points).
const maxAggregateProofs = 1 << 12

// minAggregateSRS is the smallest SRS the engine bothers building, so a
// ramp of small windows doesn't regenerate per size.
const minAggregateSRS = 64

// aggregationSRS returns an SRS with capacity ≥ n, building or
// regrowing it under the engine's SRS lock.
func (e *Engine) aggregationSRS(n int) (*ipp.SRS, error) {
	e.srsMu.Lock()
	defer e.srsMu.Unlock()
	if e.srs != nil && e.srs.MaxN >= n {
		return e.srs, nil
	}
	want := ipp.NextPow2(n)
	if want < minAggregateSRS {
		want = minAggregateSRS
	}
	srs, err := ipp.NewSRS(want, e.opts.Rand)
	if err != nil {
		return nil, fmt.Errorf("engine: aggregation SRS: %w", err)
	}
	e.m.aggregateSRSBuilds.Inc()
	e.srs = srs
	return srs, nil
}

// AggregateMany folds the proofs into one aggregation artifact and
// self-checks it before returning, so a non-nil artifact is always a
// verifying one: an invalid member proof surfaces here as an error, the
// same contract as Verify. The returned verifier key is the SRS
// share the artifact must be checked against downstream.
func (e *Engine) AggregateMany(vk *groth16.VerifyingKey, proofs []*groth16.Proof, publicInputs [][]fr.Element) (*groth16.AggregateProof, *ipp.VerifierKey, error) {
	if err := e.acquire(); err != nil {
		return nil, nil, err
	}
	defer e.release()
	if len(proofs) == 0 {
		return nil, nil, errors.New("engine: empty aggregation set")
	}
	if len(proofs) > maxAggregateProofs {
		return nil, nil, fmt.Errorf("%w: %d proofs > %d", groth16.ErrAggregateSize, len(proofs), maxAggregateProofs)
	}
	srs, err := e.aggregationSRS(ipp.NextPow2(len(proofs)))
	if err != nil {
		e.m.aggregateErrors.Inc()
		return nil, nil, err
	}
	start := time.Now()
	agg, err := groth16.AggregateProofs(srs, vk, proofs, publicInputs)
	if err == nil {
		// The aggregator folds whatever it is handed; the self-check is
		// what rejects sets containing invalid proofs.
		err = groth16.VerifyAggregate(&srs.VK, vk, agg, publicInputs)
	}
	observeSeconds(e.m.aggregateSeconds, time.Since(start))
	if err != nil {
		e.m.aggregateErrors.Inc()
		return nil, nil, err
	}
	e.m.aggregates.Inc()
	e.m.aggregatedProofs.Add(uint64(len(proofs)))
	e.m.verifies.Add(uint64(len(proofs)))
	svk := srs.VK
	return agg, &svk, nil
}
