package zkrownn_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zkrownn"
	"zkrownn/client"
)

// TestProofServiceEndToEnd drives the whole networked flow through the
// public surface only — zkrownn.NewProofService on the server side, the
// zkrownn/client package on the wire — which pins the client DTOs to
// the server's JSON API. Owner registers + proves; third parties verify
// concurrently and every verdict must stand (whether the verifies
// shared a pairing product depends on load, and is pinned
// deterministically by the service package's TestVerifyPool tests).
func TestProofServiceEndToEnd(t *testing.T) {
	srv, err := zkrownn.NewProofService(zkrownn.ProofServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rng := rand.New(rand.NewSource(11))
	ds, err := zkrownn.SyntheticMNIST(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	model := zkrownn.NewMLP(ds.Dim, []int{4}, ds.Classes, rng)
	key, err := zkrownn.GenerateKey(model, ds, zkrownn.KeyOptions{Bits: 4, Triggers: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	// Owner: register once (trusted setup happens here)...
	reg, err := c.RegisterModel(ctx, model, key, client.RegisterOptions{
		Name: "e2e-mlp", MaxErrors: len(key.Signature),
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.ModelID == "" || reg.VK == nil || reg.Constraints == 0 {
		t.Fatalf("registration incomplete: %+v", reg)
	}

	// ...then prove asynchronously. Setup must come from the key cache.
	ticket, err := c.SubmitProve(ctx, reg.ModelID, nil)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.WaitForProof(ctx, ticket.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !job.SetupCached {
		t.Fatal("prove job missed the key cache despite registration")
	}
	if job.Proof == nil || len(job.PublicInputs) == 0 {
		t.Fatal("job finished without proof material")
	}

	// The binary download must match the JSON envelope.
	raw, err := c.FetchProofBinary(ctx, ticket.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !raw.Ar.Equal(&job.Proof.Ar) || !raw.Bs.Equal(&job.Proof.Bs) || !raw.Krs.Equal(&job.Proof.Krs) {
		t.Fatal("binary proof differs from JSON proof")
	}

	// Third party: concurrent verifications.
	const verifiers = 3
	verdicts := make([]*client.VerifyResult, verifiers)
	var wg sync.WaitGroup
	for i := 0; i < verifiers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Verify(ctx, reg.ModelID, job.Proof, job.PublicInputs)
			if err != nil {
				t.Errorf("verify %d: %v", i, err)
				return
			}
			verdicts[i] = v
		}(i)
	}
	wg.Wait()
	for i, v := range verdicts {
		if v == nil {
			t.Fatalf("verifier %d got no verdict", i)
		}
		if !v.Valid || !v.Claim {
			t.Fatalf("verifier %d rejected honest proof: %+v", i, v)
		}
		if v.BatchSize < 1 {
			t.Fatalf("verifier %d: batch_size %d", i, v.BatchSize)
		}
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Service.VerifyRequests != verifiers {
		t.Fatalf("stats count %d verify requests, want %d", stats.Service.VerifyRequests, verifiers)
	}
	if stats.Engine.Setups != 1 {
		t.Fatalf("engine ran %d setups, want exactly 1 (registration)", stats.Engine.Setups)
	}

	// Queue-full surfaces as the typed sentinel. Depth is generous here,
	// so just check the registry listing instead of forcing a 429.
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].ModelID != reg.ModelID || !models[0].CanProve {
		t.Fatalf("registry listing wrong: %+v", models)
	}
}

// TestProofServiceBundleEndToEnd pins the bundle wire shapes between
// zkrownn/client and the server: a K-slot registration, one bundle job
// carrying distinct suspects, per-slot verdicts in the job status and
// the verify response — all through the public surface only.
func TestProofServiceBundleEndToEnd(t *testing.T) {
	const slots = 2
	srv, err := zkrownn.NewProofService(zkrownn.ProofServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rng := rand.New(rand.NewSource(12))
	ds, err := zkrownn.SyntheticMNIST(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	model := zkrownn.NewMLP(ds.Dim, []int{4}, ds.Classes, rng)
	suspect := zkrownn.NewMLP(ds.Dim, []int{4}, ds.Classes, rng) // same arch, fresh weights
	key, err := zkrownn.GenerateKey(model, ds, zkrownn.KeyOptions{Bits: 4, Triggers: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.RegisterModel(ctx, model, key, client.RegisterOptions{
		Name: "e2e-bundle", MaxErrors: len(key.Signature), BundleSlots: slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.BundleSlots != slots {
		t.Fatalf("registered bundle_slots %d, want %d", reg.BundleSlots, slots)
	}

	// Slot 0 keeps the registered model, slot 1 gets the suspect.
	ticket, err := c.SubmitProveBundle(ctx, reg.ModelID, []*zkrownn.Model{nil, suspect})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.WaitForProof(ctx, ticket.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Claims) != slots {
		t.Fatalf("job reports %d claims, want %d", len(job.Claims), slots)
	}
	for s, claim := range job.Claims {
		if !claim {
			t.Fatalf("slot %d claim 0 under full BER tolerance", s)
		}
	}

	v, err := c.Verify(ctx, reg.ModelID, job.Proof, job.PublicInputs)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Valid || !v.Claim || len(v.Claims) != slots {
		t.Fatalf("bundle verify verdict wrong: %+v", v)
	}

	// The whole bundle compiled one circuit and proved once.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Service.CircuitsCompiled != 1 || stats.Engine.Proves != 1 {
		t.Fatalf("bundle cost: %d compiles / %d proves, want 1 / 1", stats.Service.CircuitsCompiled, stats.Engine.Proves)
	}
}
