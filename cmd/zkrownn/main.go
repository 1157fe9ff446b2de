// Command zkrownn is the end-to-end ZKROWNN workflow driver:
//
//	zkrownn train    — train a model on the synthetic dataset
//	zkrownn keygen   — generate a secret watermark key for a model
//	zkrownn embed    — embed the watermark (DeepSigns fine-tuning)
//	zkrownn extract  — plain extraction (float and fixed-point paths)
//	zkrownn prove    — build the zk circuit, run setup, emit vk + proof
//	zkrownn verify   — third-party verification of an ownership proof
//
// Artifacts are files: models and keys are JSON; verifying keys and
// proofs use the compact binary encoding of internal/groth16; public
// inputs are the service API's versioned envelope of signed decimals.
// Datasets are deterministic given (-data-seed, -data-samples, shape), so
// every command regenerates them on demand — see DESIGN.md for the
// synthetic-data substitution rationale.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"zkrownn/client"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/core"
	"zkrownn/internal/dataset"
	"zkrownn/internal/engine"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/obs"
	"zkrownn/internal/watermark"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "keygen":
		err = cmdKeygen(os.Args[2:])
	case "embed":
		err = cmdEmbed(os.Args[2:])
	case "extract":
		err = cmdExtract(os.Args[2:])
	case "prove":
		err = cmdProve(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "zkrownn: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zkrownn:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: zkrownn <command> [flags]

commands:
  train    train a model on the synthetic dataset
  keygen   generate a watermark key
  embed    embed the watermark into a trained model
  extract  extract the watermark outside the circuit
  prove    produce a zero-knowledge ownership proof
  verify   verify an ownership proof

run "zkrownn <command> -h" for per-command flags`)
}

// dataFlags are the deterministic-dataset parameters shared by commands.
type dataFlags struct {
	samples *int
	seed    *int64
	dim     *int
	classes *int
}

func addDataFlags(fs *flag.FlagSet) dataFlags {
	return dataFlags{
		samples: fs.Int("data-samples", 600, "synthetic dataset size"),
		seed:    fs.Int64("data-seed", 7, "synthetic dataset seed"),
		dim:     fs.Int("data-dim", 64, "synthetic input dimension"),
		classes: fs.Int("data-classes", 10, "synthetic class count"),
	}
}

func (d dataFlags) generate() (*dataset.Dataset, error) {
	return dataset.Generate(dataset.Config{
		Samples: *d.samples, Dim: *d.dim, Classes: *d.classes,
		ClusterStd: 0.3, Seed: *d.seed,
	})
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	hidden := fs.Int("hidden", 64, "hidden layer width (MLP)")
	epochs := fs.Int("epochs", 15, "training epochs")
	lr := fs.Float64("lr", 0.1, "learning rate")
	seed := fs.Int64("seed", 1, "weight-init seed")
	out := fs.String("out", "model.json", "output model path")
	df := addDataFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := df.generate()
	if err != nil {
		return err
	}
	train, test := ds.Split(0.2)
	rng := rand.New(rand.NewSource(*seed))
	net := nn.NewMLP(nn.MLPConfig{In: ds.Dim, Hidden: []int{*hidden}, Classes: ds.Classes}, rng)
	fmt.Printf("training %s on %d samples...\n", net.String(), len(train.X))
	net.Train(train.X, train.Y, nn.TrainConfig{
		Epochs: *epochs, BatchSize: 16, LearningRate: *lr,
		Silent: false, Logf: func(f string, a ...any) { fmt.Printf(f, a...) },
	}, rng)
	fmt.Printf("test accuracy: %.3f\n", net.Accuracy(test.X, test.Y))
	return writeFileWith(*out, net.Save)
}

func cmdKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "model path")
	bits := fs.Int("bits", 32, "watermark bits")
	triggers := fs.Int("triggers", 4, "trigger-set size")
	layer := fs.Int("layer", 1, "embedded layer index l_wm")
	class := fs.Int("class", 0, "target Gaussian class")
	seed := fs.Int64("seed", 2, "key randomness seed")
	out := fs.String("out", "wmkey.json", "output key path")
	df := addDataFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	net, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	ds, err := df.generate()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	actDim := net.Layers[*layer].OutputSize()
	key, err := watermark.GenerateKey(rng, *layer, *class, actDim, *bits, *triggers, ds.OfClass(*class))
	if err != nil {
		return err
	}
	fmt.Printf("generated %d-bit watermark key (layer %d, class %d, %d triggers)\n",
		*bits, *layer, *class, *triggers)
	return writeJSON(*out, key)
}

func cmdEmbed(args []string) error {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "model path")
	keyPath := fs.String("key", "wmkey.json", "watermark key path")
	epochs := fs.Int("epochs", 50, "fine-tuning epochs")
	seed := fs.Int64("seed", 3, "embedding seed")
	out := fs.String("out", "model-wm.json", "output watermarked model path")
	df := addDataFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	net, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	key, err := loadKey(*keyPath)
	if err != nil {
		return err
	}
	ds, err := df.generate()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	cfg := watermark.DefaultEmbedConfig()
	cfg.Epochs = *epochs
	cfg.Silent = false
	cfg.Logf = func(f string, a ...any) { fmt.Printf(f, a...) }
	if err := watermark.Embed(net, key, ds.X, ds.Y, cfg, rng); err != nil {
		return err
	}
	_, ber := watermark.Extract(net, key)
	fmt.Printf("embedding done, float BER = %.3f\n", ber)
	return writeFileWith(*out, net.Save)
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	modelPath := fs.String("model", "model-wm.json", "model path")
	keyPath := fs.String("key", "wmkey.json", "watermark key path")
	fracBits := fs.Int("frac-bits", 16, "fixed-point fraction bits")
	if err := fs.Parse(args); err != nil {
		return err
	}

	net, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	key, err := loadKey(*keyPath)
	if err != nil {
		return err
	}
	bits, ber := watermark.Extract(net, key)
	fmt.Printf("float extraction:      bits=%v BER=%.3f\n", bits, ber)

	q, err := nn.Quantize(net, core.Spec{FracBits: *fracBits}.Params())
	if err != nil {
		return err
	}
	qbits, nbErr, err := watermark.ExtractQuantized(q, key)
	if err != nil {
		return err
	}
	fmt.Printf("fixed-point (circuit): bits=%v errors=%d\n", qbits, nbErr)
	return nil
}

func cmdProve(args []string) error {
	fs := flag.NewFlagSet("prove", flag.ExitOnError)
	modelPath := fs.String("model", "model-wm.json", "suspect model path (public)")
	keyPath := fs.String("key", "wmkey.json", "watermark key path (private)")
	outDir := fs.String("out", "ownership", "output directory for vk/proof/public artifacts")
	savePK := fs.Bool("save-pk", false, "also write the (large) proving key, in the raw format of the key cache")
	maxErrors := fs.Int("max-errors", 0, "BER tolerance θ·N")
	fracBits := fs.Int("frac-bits", 16, "fixed-point fraction bits")
	committed := fs.Bool("committed", false, "use the committed-model circuit (constant-size VK; weights bound by digest instead of public inputs)")
	keyCache := fs.String("keycache", "", "key-cache directory: reuse trusted-setup keys across runs for the same circuit architecture")
	server := fs.String("server", "", "proof-service URL: register + prove remotely (zkrownn-server) instead of proving in-process")
	suspectsFlag := fs.String("suspects", "", `comma-separated suspect model paths: prove one BATCHED claim per suspect with a single proof ("-" keeps the registered model in that slot)`)
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON timeline of the prover phases to this file (load in chrome://tracing or Perfetto)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	net, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	key, err := loadKey(*keyPath)
	if err != nil {
		return err
	}
	suspectPaths, err := splitPaths("-suspects", *suspectsFlag)
	if err != nil {
		return err
	}
	if len(suspectPaths) > 0 && *committed {
		return fmt.Errorf("-suspects needs the rebindable circuit; it cannot be combined with -committed")
	}
	spec := core.Spec{Committed: *committed, Slots: max(len(suspectPaths), 1), FracBits: *fracBits, MaxErrors: *maxErrors}
	if err := spec.Validate(); err != nil {
		return err
	}
	suspects, err := loadSuspects(suspectPaths)
	if err != nil {
		return err
	}
	meta := proveMeta{Spec: spec, LayerIndex: key.LayerIndex}
	if *server != "" {
		if *savePK {
			fmt.Fprintln(os.Stderr, "warning: -save-pk is ignored with -server (the service keeps proving keys)")
		}
		if *keyCache != "" {
			fmt.Fprintln(os.Stderr, "warning: -keycache is ignored with -server (configure the server's -keycache instead)")
		}
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, `warning: -trace is ignored with -server (submit with "trace": true and fetch GET /v1/jobs/{id}/trace instead)`)
		}
		return remoteProve(*server, net, key, *outDir, meta, suspects, suspectPaths)
	}
	fmt.Println("building extraction circuit...")
	art, err := spec.Compile(net, key)
	if err != nil {
		return err
	}
	fmt.Printf("circuit: %d constraints, %d public inputs, %d claim slot(s)\n",
		art.System.NbConstraints(), art.System.NbPublic-1, art.Slots())

	req := art.Request(nil)
	// An all-"-" list degenerates to proving the registered model in
	// every slot (matching the server's all-null bundle semantics);
	// binding only happens when at least one real suspect is named.
	if slices.ContainsFunc(suspects, func(n *nn.Network) bool { return n != nil }) {
		qs, qerr := core.QuantizeSuspects(art, suspects)
		if qerr != nil {
			return qerr
		}
		asg, berr := core.BindSuspectSlots(art, qs)
		if berr != nil {
			return berr
		}
		req = art.RequestFor(asg, nil)
	}

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		req.Ctx = obs.ContextWithTrace(context.Background(), tr)
	}

	eng := engine.New(engine.Options{CacheDir: *keyCache})
	res, err := eng.Prove(req)
	if err != nil {
		return err
	}
	if tr != nil {
		if terr := writeFileWith(*traceOut, tr.WriteChrome); terr != nil {
			return fmt.Errorf("writing trace: %w", terr)
		}
		fmt.Printf("trace written to %s (load in chrome://tracing or Perfetto)\n", *traceOut)
	}
	vk, proof := res.Keys.VK, res.Proof
	pkSize := res.Keys.PK.SizeBytes()
	if res.CacheHit {
		fmt.Printf("setup:  cache hit %s (keys for digest %s, PK %.1f MB, VK %.1f KB)\n",
			res.SetupTime, res.Digest[:12], float64(pkSize)/1e6, float64(vk.SizeBytes())/1e3)
	} else {
		fmt.Printf("setup:  %.2fs (PK %.1f MB, VK %.1f KB)\n",
			res.SetupTime.Seconds(), float64(pkSize)/1e6, float64(vk.SizeBytes())/1e3)
		switch {
		case res.PersistErr != nil:
			fmt.Printf("        warning: key cache write failed: %v\n", res.PersistErr)
		case *keyCache != "":
			fmt.Printf("        keys cached under %s/%s.{pk,vk}\n", *keyCache, res.Digest)
		}
	}
	fmt.Printf("prove:  %.2fs (proof %d B)\n", res.ProveTime.Seconds(), proof.PayloadSize())
	public := res.PublicInputs
	// Surface the verdicts whenever suspects were bound (a single-slot
	// suspect prove very plausibly yields claim=0 — say so here, not at
	// some later verify).
	if spec.Slots > 1 || len(suspectPaths) > 0 {
		if claims, cerr := spec.Verdict(public, nil); cerr == nil {
			printClaims(claims, suspectPaths)
		}
	}

	if err := writeProofDir(*outDir, vk, proof, public, meta); err != nil {
		return err
	}
	if *savePK {
		// This engine has no memory budget, so its plan is always resident.
		pk := res.Keys.PK.(*groth16.ProvingKey)
		return writeFileWith(filepath.Join(*outDir, "pk.bin"), func(w io.Writer) error {
			_, err := pk.WriteRawTo(w)
			return err
		})
	}
	return nil
}

// proveMeta records the claim spec the artifacts were proved under, the
// key's layer (a committed verify digests the model through it) and,
// for remote proves, the proof-service model ID.
type proveMeta struct {
	core.Spec
	LayerIndex int    `json:"layer_index"`
	ModelID    string `json:"model_id,omitempty"`
}

// splitPaths parses a comma-separated path flag, rejecting empty
// entries: a trailing or doubled comma would otherwise silently shift
// every later slot (or bind a registered-model slot the caller never
// asked for), so it fails loudly at flag level instead.
func splitPaths(flagName, value string) ([]string, error) {
	if value == "" {
		return nil, nil
	}
	parts := strings.Split(value, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
		if parts[i] == "" {
			return nil, fmt.Errorf(`%s: entry %d is empty (trailing or doubled comma?); use "-" to keep the registered model in a slot`, flagName, i)
		}
	}
	return parts, nil
}

// loadSuspects loads the per-slot suspect models; "-" entries stay nil
// (the registered model keeps that slot).
func loadSuspects(paths []string) ([]*nn.Network, error) {
	out := make([]*nn.Network, len(paths))
	for i, path := range paths {
		if path == "-" {
			continue
		}
		net, err := loadModel(path)
		if err != nil {
			return nil, fmt.Errorf("suspect slot %d: %w", i, err)
		}
		out[i] = net
	}
	return out, nil
}

// printClaims renders per-slot bundle verdicts. suspectPaths labels the
// slots when known (the prover side); verifiers pass nil.
func printClaims(claims []bool, suspectPaths []string) {
	for s, c := range claims {
		label := ""
		if len(suspectPaths) > 0 {
			label = " registered model"
			if s < len(suspectPaths) && suspectPaths[s] != "" && suspectPaths[s] != "-" {
				label = " " + suspectPaths[s]
			}
		}
		verdict := "claim=0 (watermark did not extract)"
		if c {
			verdict = "claim=1 (ownership holds)"
		}
		fmt.Printf("  slot %d %-28s %s\n", s, label, verdict)
	}
}

// remoteProve registers the model + key with a running proof service
// under meta's claim spec and runs the ownership proof there, writing
// the same artifact set as a local prove (vk.bin, proof.bin,
// public.json, meta.json). Non-empty suspects (one per slot, nil: the
// registered model) are submitted as one bundle job.
func remoteProve(serverURL string, net *nn.Network, key *watermark.Key, outDir string, meta proveMeta, suspects []*nn.Network, suspectPaths []string) error {
	ctx := context.Background()
	c, err := client.New(serverURL)
	if err != nil {
		return err
	}
	if err := c.Health(ctx); err != nil {
		return err
	}
	fmt.Printf("registering circuit with %s...\n", serverURL)
	reg, err := c.RegisterModel(ctx, net, key, client.RegisterOptions{
		FracBits: meta.FracBits, MaxErrors: meta.MaxErrors, Committed: meta.Committed, BundleSlots: meta.Slots,
	})
	if err != nil {
		return err
	}
	state := "setup executed"
	if reg.SetupCached {
		state = "setup cached"
	}
	fmt.Printf("model %s registered (%d constraints, %d claim slot(s), %s)\n",
		reg.ModelID, reg.Constraints, reg.BundleSlots, state)

	var ticket *client.ProveTicket
	if len(suspects) > 0 {
		ticket, err = c.SubmitProveBundle(ctx, reg.ModelID, suspects)
	} else {
		ticket, err = c.SubmitProve(ctx, reg.ModelID, nil)
	}
	if err != nil {
		return err
	}
	fmt.Printf("job %s queued, polling...\n", ticket.JobID)
	job, err := c.WaitForProof(ctx, ticket.JobID)
	if err != nil {
		return err
	}
	if reg.VK == nil || job.Proof == nil {
		return fmt.Errorf("service finished job %s without a verifying key or proof", ticket.JobID)
	}
	fmt.Printf("prove:  %.2fs server-side (proof %d B, setup cache hit %v, %s)\n",
		job.ProveMS/1e3, job.Proof.PayloadSize(), job.SetupCached, job.Residency)
	if len(job.Claims) > 1 || (len(job.Claims) > 0 && len(suspectPaths) > 0) {
		printClaims(job.Claims, suspectPaths)
	}

	meta.ModelID = reg.ModelID
	return writeProofDir(outDir, reg.VK, job.Proof, job.PublicInputs, meta)
}

// proofDir is a prove's artifact directory as verify reads it back: the
// proof, its instance and the claim it was proved under. vk.bin is read
// only where the verifying key is checked locally.
type proofDir struct {
	proof  groth16.Proof
	public groth16.PublicInputs
	meta   proveMeta
}

// writeProofDir writes a prove's artifacts, local or remote: vk.bin,
// proof.bin, public.json and meta.json.
func writeProofDir(dir string, vk *groth16.VerifyingKey, proof *groth16.Proof, public groth16.PublicInputs, meta proveMeta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(dir, "vk.bin"), func(w io.Writer) error {
		_, err := vk.WriteTo(w)
		return err
	}); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(dir, "proof.bin"), func(w io.Writer) error {
		_, err := proof.WriteTo(w)
		return err
	}); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "public.json"), public); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
		return err
	}
	fmt.Printf("artifacts written to %s/ (vk.bin, proof.bin, public.json)\n", dir)
	return nil
}

// readProofDir reads a proof directory. A missing meta.json is an
// artifact older than the file, a plain one-slot claim; a malformed one
// is an error, because it decides how the instance is read (a committed
// claim is checked against its model's digest).
func readProofDir(dir string) (*proofDir, error) {
	d := new(proofDir)
	if err := readBinary(filepath.Join(dir, "proof.bin"), &d.proof); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, "public.json"), &d.public); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, "meta.json"), &d.meta); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return d, nil
}

// serviceModelID is the proof-service model a remote verify names: the
// -model-id flag's, else the one prove -server recorded in meta.json.
func serviceModelID(flagID, dir string, meta proveMeta) (string, error) {
	if flagID != "" {
		return flagID, nil
	}
	if meta.ModelID == "" {
		return "", fmt.Errorf("no -model-id given and %s/meta.json has none (was the proof made with prove -server?)", dir)
	}
	return meta.ModelID, nil
}

// reportVerdict prints a verify's outcome, local or over the wire (where
// says which), and returns an error unless the proof verified and every
// claim holds.
func reportVerdict(claims []bool, err error, elapsed time.Duration, where string) error {
	ms := float64(elapsed.Microseconds()) / 1e3
	if err != nil {
		fmt.Printf("verification FAILED in %.1fms: %v\n", ms, err)
		return err
	}
	if len(claims) > 1 {
		printClaims(claims, nil)
	}
	if slices.Contains(claims, false) {
		fmt.Println("proof valid but ownership claim is 0 (watermark did not extract)")
		return errors.New("ownership claim is 0")
	}
	fmt.Printf("ownership VERIFIED in %.1fms%s\n", ms, where)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "ownership", "artifact directory (vk.bin, proof.bin, public.json)")
	modelPath := fs.String("model", "model-wm.json", "public suspect model (needed for committed-mode digest checks)")
	server := fs.String("server", "", "proof-service URL: verify remotely against the service's registered verifying key")
	modelID := fs.String("model-id", "", "proof-service model ID (default: meta.json of -dir)")
	aggregate := fs.Bool("aggregate", false, "with -server: fold the artifact directories' proofs into one O(log N) aggregate via /v1/aggregate, audit it locally against vk.bin, and save aggregate.json; without -server: re-verify a saved aggregate.json")
	dirsFlag := fs.String("dirs", "", "comma-separated artifact directories to aggregate (default: -dir alone); each needs proof.bin + public.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dirsFlag != "" && !*aggregate {
		return fmt.Errorf("-dirs only makes sense with -aggregate")
	}
	if *aggregate {
		dirs := []string{*dir}
		if *dirsFlag != "" {
			var derr error
			if dirs, derr = splitPaths("-dirs", *dirsFlag); derr != nil {
				return derr
			}
		}
		if *server != "" {
			return remoteAggregate(*server, dirs, *modelID)
		}
		if *dirsFlag != "" {
			return fmt.Errorf("offline -aggregate re-verifies one saved aggregate.json; -dirs needs -server")
		}
		return verifyAggregateFile(*dir)
	}
	if *server != "" {
		return remoteVerify(*server, *dir, *modelID)
	}

	var vk groth16.VerifyingKey
	if err := readBinary(filepath.Join(*dir, "vk.bin"), &vk); err != nil {
		return err
	}
	pd, err := readProofDir(*dir)
	if err != nil {
		return err
	}
	meta := pd.meta

	start := time.Now()
	var digest *fr.Element
	if meta.Committed {
		net, lerr := loadModel(*modelPath)
		if lerr != nil {
			return fmt.Errorf("committed proof needs the public model: %w", lerr)
		}
		d, derr := meta.Digest(net, meta.LayerIndex)
		if derr != nil {
			return derr
		}
		digest = &d
	}
	var claims []bool
	if err = groth16.Verify(&vk, &pd.proof, pd.public); err == nil {
		claims, err = meta.Verdict(pd.public, digest)
	}
	return reportVerdict(claims, err, time.Since(start), "")
}

// remoteVerify submits local proof artifacts to a running proof
// service, which checks them against its registered verifying key
// (batching requests that queue behind busy verifiers server-side).
func remoteVerify(serverURL, dir, modelID string) error {
	pd, err := readProofDir(dir)
	if err != nil {
		return err
	}
	if modelID, err = serviceModelID(modelID, dir, pd.meta); err != nil {
		return err
	}
	c, err := client.New(serverURL)
	if err != nil {
		return err
	}
	start := time.Now()
	verdict, err := c.Verify(context.Background(), modelID, &pd.proof, pd.public)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if !verdict.Valid {
		err = errors.New(verdict.Error)
	}
	return reportVerdict(verdict.Claims, err, elapsed, fmt.Sprintf(" over the wire (server batch size %d)", verdict.BatchSize))
}

// aggregateMeta is the self-contained aggregate.json artifact: the
// O(log N) proof-of-proofs, the SRS verifier key it pairs with, and the
// per-proof instances — everything an offline re-verification needs
// besides vk.bin.
type aggregateMeta struct {
	ModelID      string                  `json:"model_id,omitempty"`
	Count        int                     `json:"count"`
	Aggregate    *groth16.AggregateProof `json:"aggregate"`
	SRSKey       *ipp.VerifierKey        `json:"srs_key"`
	PublicInputs []groth16.PublicInputs  `json:"public_inputs"`
}

// remoteAggregate folds the artifact directories' proofs into one
// aggregate via /v1/aggregate, audits the returned artifact locally
// against the first directory's vk.bin (the service's verdict is never
// trusted), and saves aggregate.json alongside the first proof.
func remoteAggregate(serverURL string, dirs []string, modelID string) error {
	proofs := make([]*groth16.Proof, len(dirs))
	instances := make([]groth16.PublicInputs, len(dirs))
	publics := make([][]fr.Element, len(dirs))
	for i, d := range dirs {
		pd, err := readProofDir(d)
		if err != nil {
			return err
		}
		if i == 0 {
			if modelID, err = serviceModelID(modelID, d, pd.meta); err != nil {
				return err
			}
		}
		proofs[i], instances[i], publics[i] = &pd.proof, pd.public, pd.public
	}
	var vk groth16.VerifyingKey
	if err := readBinary(filepath.Join(dirs[0], "vk.bin"), &vk); err != nil {
		return err
	}

	c, err := client.New(serverURL)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := c.Aggregate(context.Background(), modelID, proofs, instances)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if !res.Valid || res.Aggregate == nil || res.SRSKey == nil {
		return fmt.Errorf("aggregation rejected: %s", res.Error)
	}
	// Audit locally: accept only an artifact that verifies against the
	// on-disk verifying key and the returned SRS key.
	if err := groth16.VerifyAggregate(res.SRSKey, &vk, res.Aggregate, publics); err != nil {
		return fmt.Errorf("server artifact failed local audit: %w", err)
	}

	out := filepath.Join(dirs[0], "aggregate.json")
	am := aggregateMeta{
		ModelID:      modelID,
		Count:        res.Count,
		Aggregate:    res.Aggregate,
		SRSKey:       res.SRSKey,
		PublicInputs: instances,
	}
	if err := writeJSON(out, am); err != nil {
		return err
	}
	if !res.Claim {
		fmt.Printf("aggregate of %d proofs valid but at least one ownership claim is 0\n", res.Count)
	}
	fmt.Printf("aggregated %d proofs in %.1fms over the wire (fold of %d); artifact locally audited, written to %s (%d B vs %d B unaggregated)\n",
		res.Count, float64(elapsed.Microseconds())/1e3, res.BatchSize, out,
		res.Aggregate.SizeBytes(), len(proofs)*proofs[0].PayloadSize())
	return nil
}

// verifyAggregateFile re-verifies a saved aggregate.json offline
// against the directory's vk.bin.
func verifyAggregateFile(dir string) error {
	var am aggregateMeta
	if err := readJSON(filepath.Join(dir, "aggregate.json"), &am); err != nil {
		return fmt.Errorf("no saved aggregate (run verify -aggregate -server first): %w", err)
	}
	if am.Aggregate == nil || am.SRSKey == nil {
		return fmt.Errorf("%s/aggregate.json is incomplete", dir)
	}
	var vk groth16.VerifyingKey
	if err := readBinary(filepath.Join(dir, "vk.bin"), &vk); err != nil {
		return err
	}
	publics := make([][]fr.Element, len(am.PublicInputs))
	for i, pub := range am.PublicInputs {
		publics[i] = pub
	}

	start := time.Now()
	err := groth16.VerifyAggregate(am.SRSKey, &vk, am.Aggregate, publics)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Printf("aggregate verification FAILED in %.1fms: %v\n", float64(elapsed.Microseconds())/1e3, err)
		return err
	}
	fmt.Printf("aggregate of %d proofs VERIFIED in %.1fms (%.2fms per proof)\n",
		am.Count, float64(elapsed.Microseconds())/1e3,
		float64(elapsed.Microseconds())/1e3/float64(max(am.Count, 1)))
	return nil
}

// --- file helpers ---

func loadModel(path string) (*nn.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nn.Load(f)
}

func loadKey(path string) (*watermark.Key, error) {
	var k watermark.Key
	if err := readJSON(path, &k); err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &k, nil
}

func writeJSON(path string, v any) error {
	return writeFileWith(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
}

func readJSON(path string, v any) error {
	return readFileWith(path, func(r io.Reader) error { return json.NewDecoder(r).Decode(v) })
}

// readBinary decodes the binary artifact (vk.bin, proof.bin) at path into v.
func readBinary(path string, v io.ReaderFrom) error {
	return readFileWith(path, func(r io.Reader) error {
		_, err := v.ReadFrom(r)
		return err
	})
}

func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readFileWith decodes the file at path with fn; a decode error names
// the file.
func readFileWith(path string, fn func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fn(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
