package service

import (
	"zkrownn/internal/obs"
)

// Service-level metrics on the process-wide obs registry (idempotent
// registration — servers in one process share the series). The queue
// depth gauge is registered per server in New, since it closes over the
// live queue.
var (
	mHTTPRequests = obs.Default().Counter("zkrownn_http_requests_total",
		"HTTP requests served (all routes).")
	mJobsSubmitted = obs.Default().Counter("zkrownn_jobs_submitted_total",
		"Prove jobs accepted onto the queue.")
	mJobsRejected = obs.Default().Counter("zkrownn_jobs_rejected_total",
		"Prove jobs rejected with 429 (queue full).")
	mJobsCompleted = obs.Default().Counter("zkrownn_jobs_completed_total",
		"Prove jobs finished successfully.")
	mJobsFailed = obs.Default().Counter("zkrownn_jobs_failed_total",
		"Prove jobs that failed (bind, solve, prove, or shutdown).")

	mQueueWaitSeconds = obs.Default().Histogram("zkrownn_queue_wait_seconds",
		"Time a prove job waited on the queue before dispatch.", obs.TimeBuckets())
	mVerifyBatchSize = obs.Default().Histogram("zkrownn_verify_batch_size",
		"Requests folded into one verify pairing product.",
		[]float64{1, 2, 4, 8, 16, 32, 64})

	// mPanics counts panics recovered on a pool worker, by pool.
	mPanics = map[string]*obs.Counter{"prove": panicCounter("prove"), "verify": panicCounter("verify")}

	mAggregateRequests = obs.Default().Counter("zkrownn_aggregate_requests_total",
		"Aggregation requests accepted (/v1/aggregate).")
	mAggregateRequestProofs = obs.Default().Histogram("zkrownn_aggregate_request_proofs",
		"Proofs carried by one aggregation request.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
)

func panicCounter(pool string) *obs.Counter {
	return obs.Default().Counter(`zkrownn_panics_total{pool="`+pool+`"}`,
		"Panics recovered on a pool worker (the job or batch it held failed, the worker kept running).")
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
