package service

import (
	"zkrownn/internal/obs"
)

// metrics is one server's series, registered once on a registry the
// server owns. Every event is recorded by one call on one of them;
// /v1/stats and /metrics are views of these.
type metrics struct {
	reg *obs.Registry

	httpRequests     *obs.Counter
	circuitsCompiled *obs.Counter
	// panics counts recovered panics, by pool: a prove or verify
	// worker, or an HTTP handler.
	panics map[string]*obs.Counter

	jobsSubmitted, jobsRejected, jobsCompleted, jobsFailed *obs.Counter
	queueWaitSeconds                                       *obs.Histogram

	verifyRequests, verifyBatchCalls, verifyBatchedRequests, verifyFallbacks *obs.Counter
	verifyDecodeFallbacks                                                    *obs.Counter
	verifyMaxBatch                                                           *obs.Gauge
	verifyBatchSize                                                          *obs.Histogram

	aggregateRequests, aggregateArtifacts, aggregateFallbacks *obs.Counter
	aggregateRequestProofs                                    *obs.Histogram
}

// newMetrics registers the server's series; queueDepth is read at
// scrape time.
func newMetrics(queueDepth func() float64) *metrics {
	r := obs.NewRegistry()
	r.GaugeFunc("zkrownn_queue_depth",
		"Prove jobs waiting on the queue (excludes the ones being proved).", queueDepth)
	panics := func(pool string) *obs.Counter {
		return r.Counter(`zkrownn_panics_total{pool="`+pool+`"}`,
			"Panics recovered on a prove or verify worker (the job or batch it held failed, the worker kept running) or in an HTTP handler (the request answered 500).")
	}
	return &metrics{
		reg: r,

		httpRequests: r.Counter("zkrownn_http_requests_total",
			"HTTP requests served (all routes)."),
		circuitsCompiled: r.Counter("zkrownn_circuits_compiled_total",
			"Algorithm-1 circuit compilations (one per registration; prove jobs never recompile)."),
		panics: map[string]*obs.Counter{"prove": panics("prove"), "verify": panics("verify"), "http": panics("http")},

		jobsSubmitted: r.Counter("zkrownn_jobs_submitted_total",
			"Prove jobs accepted onto the queue."),
		jobsRejected: r.Counter("zkrownn_jobs_rejected_total",
			"Prove jobs rejected with 429 (queue full)."),
		jobsCompleted: r.Counter("zkrownn_jobs_completed_total",
			"Prove jobs finished successfully."),
		jobsFailed: r.Counter("zkrownn_jobs_failed_total",
			"Prove jobs that failed (bind, solve, prove, or shutdown)."),
		queueWaitSeconds: r.Histogram("zkrownn_queue_wait_seconds",
			"Time a prove job waited on the queue before dispatch.", obs.TimeBuckets()),

		verifyRequests: r.Counter("zkrownn_verify_requests_total",
			"Proofs accepted onto the verify queue (well-formed, correct input length; an aggregate set counts each member)."),
		verifyBatchCalls: r.Counter("zkrownn_verify_batch_calls_total",
			"BatchVerify calls that folded two or more requests into one pairing product."),
		verifyBatchedRequests: r.Counter("zkrownn_verify_batched_requests_total",
			"Verify requests served by a BatchVerify call that folded two or more."),
		verifyFallbacks: r.Counter("zkrownn_verify_fallbacks_total",
			"Batches that failed as a whole and were re-checked proof by proof."),
		verifyDecodeFallbacks: r.Counter("zkrownn_verify_decode_fallback_total",
			"Verify request bodies that were not the canonical bytes (or did not decode) and went through encoding/json."),
		verifyMaxBatch: r.Gauge("zkrownn_verify_max_batch",
			"Largest batch or aggregate set folded so far."),
		verifyBatchSize: r.Histogram("zkrownn_verify_batch_size",
			"Requests folded into one verify pairing product.",
			[]float64{1, 2, 4, 8, 16, 32, 64}),

		aggregateRequests: r.Counter("zkrownn_aggregate_requests_total",
			"Aggregation requests accepted (/v1/aggregate)."),
		aggregateArtifacts: r.Counter("zkrownn_aggregate_artifacts_total",
			"Aggregation artifacts issued."),
		aggregateFallbacks: r.Counter("zkrownn_aggregate_fallbacks_total",
			"Aggregate sets that failed as a whole and fell back to per-proof attribution (no artifact issued)."),
		aggregateRequestProofs: r.Histogram("zkrownn_aggregate_request_proofs",
			"Proofs carried by one aggregation request.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
	}
}

// histogramWire converts a registry snapshot into the /v1/stats shape.
func histogramWire(s obs.HistogramSnapshot) *HistogramWire {
	hw := &HistogramWire{Count: s.Count, Sum: s.Sum}
	for i, b := range s.Bounds {
		hw.Buckets = append(hw.Buckets, HistogramBucketWire{LE: b, Count: s.Counts[i]})
	}
	// The overflow bucket is implied by Count; expose the bounded ones.
	return hw
}
