package engine

import (
	"time"

	"zkrownn/internal/obs"
)

// metrics is one engine's series, registered once on a registry the
// engine owns. Every event is recorded by one call on one of them;
// Stats, and a front-end's /v1/stats and /metrics, are views of these.
type metrics struct {
	reg *obs.Registry

	setupSeconds, solveSeconds, proveSeconds *obs.Histogram
	verifySeconds, aggregateSeconds          *obs.Histogram

	keycacheMemHits, keycacheDiskHits, keycacheMisses *obs.Counter

	proves, streamProves, spillProves, proveErrors, verifies *obs.Counter

	aggregates, aggregatedProofs, aggregateErrors, aggregateSRSBuilds *obs.Counter
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	return &metrics{
		reg: r,

		setupSeconds: r.Histogram("zkrownn_setup_seconds",
			"Trusted setup wall-clock time (executed setups only, not cache hits).", obs.TimeBuckets()),
		solveSeconds: r.Histogram("zkrownn_solve_seconds",
			"Witness generation (solver-program replay) wall-clock time.", obs.TimeBuckets()),
		proveSeconds: r.Histogram("zkrownn_prove_seconds",
			"Groth16 prove wall-clock time per proof.", obs.TimeBuckets()),
		verifySeconds: r.Histogram("zkrownn_verify_seconds",
			"Groth16 verify wall-clock time per call (batched calls count once).", obs.TimeBuckets()),
		aggregateSeconds: r.Histogram("zkrownn_aggregate_seconds",
			"Proof aggregation wall-clock time per artifact (prove + self-check).", obs.TimeBuckets()),

		keycacheMemHits: r.Counter(`zkrownn_keycache_hits_total{tier="memory"}`,
			"Key lookups served from a cache tier, by tier."),
		keycacheDiskHits: r.Counter(`zkrownn_keycache_hits_total{tier="disk"}`,
			"Key lookups served from a cache tier, by tier."),
		keycacheMisses: r.Counter("zkrownn_keycache_misses_total",
			"Key lookups that ran a trusted setup."),

		proves: r.Counter("zkrownn_proves_total",
			"Proofs produced."),
		streamProves: r.Counter("zkrownn_stream_proves_total",
			"Proofs produced out-of-core (streamed key, disk-resident CSR, spilled witness); always equals zkrownn_spill_proves_total."),
		spillProves: r.Counter("zkrownn_spill_proves_total",
			"Proofs produced fully out-of-core (streamed key, disk-resident CSR, spilled witness)."),
		proveErrors: r.Counter("zkrownn_prove_errors_total",
			"Prove requests that failed at any stage."),
		verifies: r.Counter("zkrownn_verifies_total",
			"Proofs verified (batched proofs count individually)."),

		aggregates: r.Counter("zkrownn_aggregates_total",
			"Aggregation artifacts produced."),
		aggregatedProofs: r.Counter("zkrownn_aggregated_proofs_total",
			"Proofs folded into aggregation artifacts (pre-padding counts)."),
		aggregateErrors: r.Counter("zkrownn_aggregate_errors_total",
			"Aggregation requests that failed (invalid member proofs or SRS errors)."),
		aggregateSRSBuilds: r.Counter("zkrownn_aggregate_srs_builds_total",
			"Aggregation SRS generations (first use and capacity regrowths)."),
	}
}

func observeSeconds(h *obs.Histogram, d time.Duration) {
	h.Observe(d.Seconds())
}

// total reads a duration histogram back as (observations, summed time).
func total(h *obs.Histogram) (uint64, time.Duration) {
	s := h.Snapshot()
	return s.Count, time.Duration(s.Sum * float64(time.Second))
}
