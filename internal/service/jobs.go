package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/obs"
)

// Pool sentinels, surfaced by the HTTP layer as 429, 503 and 500.
var (
	errQueueFull = errors.New("service: prove queue full")
	errShutdown  = errors.New("service: shutting down")
	errInternal  = errors.New("service: internal error")
)

// job is one async ownership-proof request — a single claim or a whole
// bundle (one suspect per slot of a batched registration).
type job struct {
	id  string
	rec *modelRecord
	// suspects holds one model per claim slot (nil entry: registered
	// model); an empty slice proves the registered model in every slot.
	suspects  []*nn.Network
	submitted time.Time
	// reqID ties the job's log lines back to the HTTP request that
	// submitted it.
	reqID string
	// trace, when non-nil (submitted with trace=true), collects per-phase
	// spans through the engine and prover; the finished timeline is
	// served at GET /v1/jobs/{id}/trace.
	trace *obs.Trace

	mu          sync.Mutex
	status      string
	errMsg      string
	setupCached bool
	queuedFor   time.Duration
	solveTime   time.Duration
	proveTime   time.Duration
	residency   string
	claims      []bool
	proof       *groth16.Proof
	public      groth16.PublicInputs
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		JobID:        j.id,
		ModelID:      j.rec.ID,
		Status:       j.status,
		Error:        j.errMsg,
		SetupCached:  j.setupCached,
		QueuedMS:     float64(j.queuedFor.Microseconds()) / 1e3,
		SolveMS:      float64(j.solveTime.Microseconds()) / 1e3,
		ProveMS:      float64(j.proveTime.Microseconds()) / 1e3,
		Residency:    j.residency,
		Claims:       j.claims,
		Proof:        j.proof,
		PublicInputs: j.public,
		HasTrace:     j.trace != nil,
		RequestID:    j.reqID,
	}
}

// jobQueue is the bounded async prove queue. Submissions land in a
// buffered channel (backpressure: a full channel rejects with
// errQueueFull → HTTP 429) and as many workers as the engine proves at
// once each pull one job at a time from it, so a job starts the moment
// a worker is free, never behind a batch it was not part of. Jobs for
// one circuit share the engine's per-digest setup singleflight.
type jobQueue struct {
	srv       *Server
	retention int

	ch chan *job
	wg sync.WaitGroup

	// closeMu serializes submissions against close: submit holds a read
	// lock across its closing-check *and* channel send, so once close
	// has taken the write lock, set closing and closed the channel, no
	// job can be sent on it (a panic) or slip in behind the workers'
	// final drain (which would strand it in "queued" forever).
	closeMu sync.RWMutex
	closing atomic.Bool

	mu       sync.RWMutex
	byID     map[string]*job
	finished []string // terminal job IDs, oldest first, for eviction
	seq      atomic.Uint64
}

func newJobQueue(srv *Server, depth, workers, retention int) *jobQueue {
	q := &jobQueue{
		srv:       srv,
		retention: retention,
		ch:        make(chan *job, depth),
		byID:      make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for j := range q.ch {
				q.run(j)
			}
		}()
	}
	return q
}

func (q *jobQueue) submit(rec *modelRecord, suspects []*nn.Network, reqID string, traced bool) (*job, error) {
	q.closeMu.RLock()
	defer q.closeMu.RUnlock()
	if q.closing.Load() {
		return nil, errShutdown
	}
	j := &job{
		id:        fmt.Sprintf("job-%d", q.seq.Add(1)),
		rec:       rec,
		suspects:  suspects,
		submitted: time.Now(),
		reqID:     reqID,
		status:    JobQueued,
	}
	if traced {
		j.trace = obs.NewTrace()
	}
	q.mu.Lock()
	q.byID[j.id] = j
	q.mu.Unlock()

	select {
	case q.ch <- j:
		return j, nil
	default:
		q.forget(j.id)
		return nil, errQueueFull
	}
}

func (q *jobQueue) forget(id string) {
	q.mu.Lock()
	delete(q.byID, id)
	q.mu.Unlock()
}

func (q *jobQueue) get(id string) (*job, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	j, ok := q.byID[id]
	return j, ok
}

// depth reports the number of jobs waiting in the channel (not the ones
// being proved).
func (q *jobQueue) depth() int { return len(q.ch) }

// retire records a job's terminal state and evicts the oldest finished
// jobs beyond the retention cap, bounding long-run memory: without it a
// busy server accumulates every proof (and job bookkeeping) forever.
func (q *jobQueue) retire(id string) {
	if q.retention <= 0 {
		return
	}
	q.mu.Lock()
	q.finished = append(q.finished, id)
	for len(q.finished) > q.retention {
		delete(q.byID, q.finished[0])
		q.finished = q.finished[1:]
	}
	q.mu.Unlock()
}

// close stops the workers: jobs being proved finish, jobs still queued
// are failed with the shutdown sentinel (so pollers see a terminal state
// instead of "queued" forever), new submissions are rejected.
// Idempotent via sync.Once in Server.Close.
func (q *jobQueue) close() {
	q.closeMu.Lock()
	q.closing.Store(true)
	close(q.ch)
	q.closeMu.Unlock()
	q.wg.Wait()
}

// failed is the one way a job ends without a proof: terminal status,
// counters, a log record, and its place in the retention list.
func (q *jobQueue) failed(j *job, err error) {
	j.mu.Lock()
	j.status = JobFailed
	j.errMsg = err.Error()
	j.mu.Unlock()
	q.srv.m.jobsFailed.Inc()
	q.srv.log.Warn("job failed", "job_id", j.id, "req_id", j.reqID, "err", err.Error())
	q.retire(j.id)
}

// run binds one job's input assignment onto the circuit compiled at
// registration and proves it — the solve-many half of the compile-once
// split: no job recompiles, suspect-model jobs only rewrite the weight
// slots of the assignment.
func (q *jobQueue) run(j *job) {
	defer q.srv.recoverWorker("prove", func(err error) { q.failed(j, err) })
	if q.closing.Load() {
		q.failed(j, errShutdown)
		return
	}
	if q.srv.testJobStall != nil {
		q.srv.testJobStall()
	}
	j.mu.Lock()
	j.status = JobRunning
	j.queuedFor = time.Since(j.submitted)
	queued := j.queuedFor
	j.mu.Unlock()
	q.srv.m.queueWaitSeconds.Observe(queued.Seconds())

	asg, err := j.rec.assignmentFor(j.suspects)
	j.suspects = nil // the assignment owns the job's working set now
	if err != nil {
		q.failed(j, err)
		return
	}
	req := j.rec.art.RequestFor(asg, nil)
	req.Name = j.id
	if j.trace != nil {
		req.Ctx = obs.ContextWithTrace(context.Background(), j.trace)
	}
	res, err := q.srv.eng.Prove(req)
	if err != nil {
		q.failed(j, err)
		return
	}
	// Per-slot verdicts come from the record's reading of the instance;
	// a failure is impossible for circuits the service itself compiled,
	// but guard anyway.
	claims, err := j.rec.verdict(res.PublicInputs)
	if err != nil {
		q.failed(j, err)
		return
	}
	j.mu.Lock()
	j.status = JobDone
	j.setupCached = res.CacheHit
	j.solveTime = res.SolveTime
	j.proveTime = res.ProveTime
	j.residency = res.Keys.Plan.Residency.String()
	j.proof = res.Proof
	j.claims = claims
	// The instance — including computed outputs such as the claim bits —
	// comes from the solved witness, so the proof response is
	// self-contained.
	j.public = res.PublicInputs
	j.mu.Unlock()
	q.srv.m.jobsCompleted.Inc()
	q.srv.log.Info("job done",
		"job_id", j.id, "req_id", j.reqID, "model_id", j.rec.ID,
		"queued_ms", float64(queued.Microseconds())/1e3,
		"solve_ms", float64(res.SolveTime.Microseconds())/1e3,
		"prove_ms", float64(res.ProveTime.Microseconds())/1e3,
		"setup_cached", res.CacheHit, "residency", res.Keys.Plan.Residency.String(),
		"residency_reason", res.Keys.Plan.Reason, "traced", j.trace != nil)
	q.retire(j.id)
}
