// Proof service demo: the ZKROWNN ownership flow over the wire.
//
//	go run ./examples/proof_service
//
// An in-process proof service is started (pass -connect to target a
// running zkrownn-server instead), then:
//
//  1. The owner trains a small model, embeds a DeepSigns watermark,
//     and registers the ownership circuit — the service compiles
//     Algorithm 1 and runs trusted setup once.
//  2. The owner submits async proof jobs; they fan into the engine's
//     prove pool and every one hits the registration's key cache.
//  3. Third-party verifiers check the proof over the wire, many more at
//     once than the service has cores — the ones that find every
//     verifier busy queue, and each verifier that frees up checks all
//     of them in one batched pairing product (watch batch_size / the
//     stats). A lone verify would be checked at once, on its own.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"zkrownn"
	"zkrownn/client"
)

func main() {
	connect := flag.String("connect", "", "URL of a running zkrownn-server (default: start one in-process)")
	flag.Parse()

	baseURL := *connect
	if baseURL == "" {
		srv, err := zkrownn.NewProofService(zkrownn.ProofServiceOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go func() { _ = http.Serve(ln, srv) }()
		baseURL = "http://" + ln.Addr().String()
		fmt.Println("in-process proof service on", baseURL)
	}

	ctx := context.Background()
	c, err := client.New(baseURL)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Health(ctx); err != nil {
		log.Fatal(err)
	}

	// --- The owner's side: model, watermark, registration ---

	rng := rand.New(rand.NewSource(42))
	ds, err := zkrownn.SyntheticMNIST(400, 7)
	if err != nil {
		log.Fatal(err)
	}
	model := zkrownn.NewMLP(ds.Dim, []int{48}, ds.Classes, rng)
	fmt.Println("training", model.String(), "...")
	zkrownn.Train(model, ds, zkrownn.TrainOptions{Epochs: 10, BatchSize: 16, LearningRate: 0.1}, rng)

	key, err := zkrownn.GenerateKey(model, ds, zkrownn.KeyOptions{Bits: 16, Triggers: 4}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("embedding a %d-bit watermark...\n", len(key.Signature))
	if err := zkrownn.EmbedWatermark(model, key, ds, zkrownn.EmbedOptions{Epochs: 80}, rng); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	reg, err := c.RegisterModel(ctx, model, key, client.RegisterOptions{Name: "demo-mlp"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered circuit %s… (%d constraints) in %.1fs — VK filed by the service\n",
		reg.ModelID[:12], reg.Constraints, time.Since(start).Seconds())

	// --- Async proving: three jobs, one trusted setup ---

	const jobs = 3
	tickets := make([]*client.ProveTicket, 0, jobs)
	for i := 0; i < jobs; i++ {
		t, err := c.SubmitProve(ctx, reg.ModelID, nil)
		if err != nil {
			log.Fatal(err)
		}
		tickets = append(tickets, t)
	}
	fmt.Printf("submitted %d async proof jobs\n", jobs)
	var lastJob *client.JobStatus
	for _, t := range tickets {
		job, err := c.WaitForProof(ctx, t.JobID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: proved in %.2fs (queued %.0fms, setup cache hit %v)\n",
			job.JobID, job.ProveMS/1e3, job.QueuedMS, job.SetupCached)
		lastJob = job
	}

	// --- The verifiers' side: more requests than cores, so they batch ---

	verifiers := 8 * runtime.NumCPU()
	fmt.Printf("verifying over the wire ×%d concurrently (%d cores)...\n", verifiers, runtime.NumCPU())
	batchSizes := make([]int, verifiers)
	var wg sync.WaitGroup
	for i := range batchSizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Verify(ctx, reg.ModelID, lastJob.Proof, lastJob.PublicInputs)
			if err != nil {
				log.Fatal(err)
			}
			if !v.Valid || !v.Claim {
				log.Fatalf("verifier %d: valid=%v claim=%v", i, v.Valid, v.Claim)
			}
			batchSizes[i] = v.BatchSize
		}()
	}
	wg.Wait()
	sort.Ints(batchSizes)
	fmt.Printf("  all valid; checked in batches of %v\n", batchSizes)

	stats, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nservice stats: %d setup(s), %d prove(s), %d verifies; "+
		"%d batch-verify call(s) covering %d requests (max batch %d)\n",
		stats.Engine.Setups, stats.Engine.Proves, stats.Engine.Verifies,
		stats.Service.VerifyBatchCalls, stats.Service.VerifyBatchedRequests,
		stats.Service.VerifyMaxBatch)
	fmt.Println("\nownership settled over the wire — the verifier never saw the")
	fmt.Println("trigger keys, the projection matrix, or the watermark bits.")
}
