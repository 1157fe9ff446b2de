package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/engine"
	"zkrownn/internal/groth16"
)

// maxVerifyBatch caps the requests one verifier folds into a single
// groth16.BatchVerify, which bounds the per-proof re-check a bad member
// costs its neighbors.
const maxVerifyBatch = 32

// verifyPool is the verification scheduler: GOMAXPROCS verifier
// goroutines pull from one FIFO. A verifier takes the oldest queued item
// plus every other queued request for the same model, so an idle server
// checks a lone proof at once, and a batch — one combined pairing
// product, k+2 Miller loops instead of 3k — forms exactly when
// requests had to queue because every verifier was busy. A failed batch
// is re-checked proof by proof so a bad proof fails its own request, not
// its neighbors'.
//
// An /v1/aggregate set is one queue item folded by Engine.AggregateMany
// on its own: it shares an artifact with nothing, so no other client's
// proofs can fail it.
type verifyPool struct {
	srv *Server

	mu     sync.Mutex
	wake   *sync.Cond
	queue  []*verifyItem // oldest first
	closed bool
	wg     sync.WaitGroup
}

// verifyItem is one queued unit of verifier work: the single proof of a
// verify request, or the whole set of an aggregate request.
type verifyItem struct {
	rec       *modelRecord
	proofs    []*groth16.Proof
	publics   [][]fr.Element
	aggregate bool
	done      chan verifyOutcome
}

type verifyOutcome struct {
	// err is nil when the check passed; errShutdown, engine.ErrClosed and
	// errInternal are the service's failures, anything else the proof's.
	err       error
	batchSize int
	// agg and srsVK carry the artifact of an aggregate item that folded.
	agg   *groth16.AggregateProof
	srsVK *ipp.VerifierKey
}

func newVerifyPool(srv *Server) *verifyPool {
	p := &verifyPool{srv: srv}
	p.wake = sync.NewCond(&p.mu)
	for i := runtime.GOMAXPROCS(0); i > 0; i-- {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for batch := p.take(); batch != nil; batch = p.take() {
				p.run(batch)
			}
		}()
	}
	return p
}

// do queues one item and blocks until a verifier (or close) answers it.
func (p *verifyPool) do(it *verifyItem) verifyOutcome {
	it.done = make(chan verifyOutcome, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return verifyOutcome{err: errShutdown}
	}
	p.queue = append(p.queue, it)
	p.mu.Unlock()
	p.wake.Signal()
	return <-it.done
}

// take blocks for the oldest queued item and returns it together with
// the other queued verify requests for the same model record (an
// aggregate set is taken alone). nil means the pool is closed.
func (p *verifyPool) take() []*verifyItem {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 {
		if p.closed {
			return nil
		}
		p.wake.Wait()
	}
	head := p.queue[0]
	batch := []*verifyItem{head}
	rest := p.queue[:0]
	for _, it := range p.queue[1:] {
		if !head.aggregate && !it.aggregate && it.rec == head.rec && len(batch) < maxVerifyBatch {
			batch = append(batch, it)
		} else {
			rest = append(rest, it)
		}
	}
	clear(p.queue[len(rest):])
	p.queue = rest
	return batch
}

// close answers everything still queued with the shutdown error and
// waits for the verifiers to finish the batches they hold.
func (p *verifyPool) close() {
	p.mu.Lock()
	p.closed = true
	queued := p.queue
	p.queue = nil
	p.mu.Unlock()
	p.wake.Broadcast()
	for _, it := range queued {
		it.done <- verifyOutcome{err: errShutdown}
	}
	p.wg.Wait()
}

// run checks one batch and answers every waiter in it.
func (p *verifyPool) run(batch []*verifyItem) {
	s, head := p.srv, batch[0]
	defer s.recoverWorker("verify", func(err error) {
		for _, it := range batch {
			select {
			case it.done <- verifyOutcome{err: err}:
			default: // answered before the panic; its one-slot buffer is still full
			}
		}
	})
	if s.testVerifyStall != nil {
		s.testVerifyStall()
	}
	if head.aggregate {
		head.done <- p.aggregate(head)
		return
	}
	n, vk := len(batch), head.rec.VK
	s.m.verifyBatchSize.Observe(float64(n))
	if n > 1 {
		s.m.verifyBatchCalls.Inc()
		s.m.verifyBatchedRequests.Add(uint64(n))
		s.m.verifyMaxBatch.Max(float64(n))
	}
	proofs := make([]*groth16.Proof, n)
	publics := make([][]fr.Element, n)
	for i, it := range batch {
		proofs[i], publics[i] = it.proofs[0], it.publics[0]
	}
	err := s.eng.Verify(nil, vk, proofs, publics)
	if n == 1 || err == nil || errors.Is(err, engine.ErrClosed) {
		// One proof, passed, or the engine is shutting down — re-running
		// Verify per proof would collect n more ErrClosed and misreport
		// the shutdown as a fallback. One answer for everyone.
		for _, it := range batch {
			it.done <- verifyOutcome{err: err, batchSize: n}
		}
		return
	}
	// The combined product rejected: at least one member is invalid.
	s.m.verifyFallbacks.Inc()
	for i, it := range batch {
		it.done <- verifyOutcome{err: s.eng.Verify(nil, vk, proofs[i:i+1], publics[i:i+1]), batchSize: n}
	}
}

// aggregate folds one aggregate set. When the fold's self-check rejects
// it, the first member that fails on its own is named; no artifact is
// issued for a set that does not verify as a whole.
func (p *verifyPool) aggregate(it *verifyItem) verifyOutcome {
	s, vk, n := p.srv, it.rec.VK, len(it.proofs)
	s.m.verifyBatchSize.Observe(float64(n))
	out := verifyOutcome{batchSize: n}
	out.agg, out.srsVK, out.err = s.eng.AggregateMany(vk, it.proofs, it.publics)
	switch {
	case out.err == nil:
		s.m.aggregateArtifacts.Inc()
		s.m.verifyMaxBatch.Max(float64(n))
	case !errors.Is(out.err, engine.ErrClosed):
		s.m.aggregateFallbacks.Inc()
		for i := range it.proofs {
			if err := s.eng.Verify(nil, vk, it.proofs[i:i+1], it.publics[i:i+1]); err != nil {
				out.err = fmt.Errorf("proof %d: %w", i, err)
				break
			}
		}
	}
	return out
}
