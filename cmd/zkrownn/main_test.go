package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zkrownn/internal/service"
)

// capture runs one subcommand in-process and returns what it printed on
// standard output and the error it returned.
func capture(t *testing.T, cmd func([]string) error, args ...string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	cerr := cmd(args)
	os.Stdout = stdout
	printed, err := os.ReadFile(out.Name())
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), cerr
}

// runCmd is capture for a subcommand that must succeed.
func runCmd(t *testing.T, cmd func([]string) error, args ...string) string {
	t.Helper()
	printed, err := capture(t, cmd, args...)
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, printed)
	}
	return printed
}

// TestCLIRoundTrip drives train → keygen → prove → verify on a tiny
// model, through the local prover in its three claim shapes (plain,
// committed, and a two-slot suspect bundle), and through an in-process
// proof service: prove -server, verify -server, an aggregate folded by
// the server and re-verified offline.
func TestCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	data := []string{"-data-samples", "120", "-data-dim", "16", "-data-classes", "4"}
	model, key := at("model.json"), at("wmkey.json")
	runCmd(t, cmdTrain, append([]string{"-hidden", "8", "-epochs", "2", "-out", model}, data...)...)
	runCmd(t, cmdKeygen, append([]string{"-model", model, "-bits", "8", "-triggers", "2", "-out", key}, data...)...)
	prove := func(out string, extra ...string) string {
		return runCmd(t, cmdProve, append([]string{"-model", model, "-key", key, "-max-errors", "8", "-out", out}, extra...)...)
	}
	readMeta := func(out string) map[string]any {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(out, "meta.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("plain", func(t *testing.T) {
		out := at("own")
		prove(out)
		if v := runCmd(t, cmdVerify, "-dir", out); !strings.Contains(v, "ownership VERIFIED") {
			t.Fatalf("verify printed %q", v)
		}
		if m := readMeta(out); m["bundle_slots"] != 1.0 || m["frac_bits"] != 16.0 {
			t.Fatalf("meta.json = %v", m)
		}
	})

	t.Run("committed", func(t *testing.T) {
		out := at("own-committed")
		prove(out, "-committed")
		if m := readMeta(out); m["committed"] != true {
			t.Fatalf("meta.json = %v, want committed", m)
		}
		if v := runCmd(t, cmdVerify, "-dir", out, "-model", model); !strings.Contains(v, "ownership VERIFIED") {
			t.Fatalf("verify printed %q", v)
		}
		// A damaged meta.json is an error, not a plain claim that skips
		// the digest check.
		damaged := at("own-committed-damaged")
		copyDir(t, out, damaged)
		if err := os.WriteFile(filepath.Join(damaged, "meta.json"), []byte(`{"committed": tr`), 0o644); err != nil {
			t.Fatal(err)
		}
		if v, err := capture(t, cmdVerify, "-dir", damaged, "-model", model); err == nil || !strings.Contains(err.Error(), "meta.json") {
			t.Fatalf("verify with a damaged meta.json: err = %v, printed %q", err, v)
		}
	})

	t.Run("claim-0", func(t *testing.T) {
		// The trained model never had the watermark embedded: with no
		// tolerance its claim is 0, which verifies as a proof and fails
		// as a claim.
		out := at("own-claim0")
		prove(out, "-max-errors", "0")
		v, err := capture(t, cmdVerify, "-dir", out)
		if err == nil || !strings.Contains(v, "ownership claim is 0") {
			t.Fatalf("verify of a claim-0 proof: err = %v, printed %q", err, v)
		}
	})

	t.Run("suspects", func(t *testing.T) {
		out := at("own-bundle")
		if p := prove(out, "-suspects", model+",-"); !strings.Contains(p, "2 claim slot(s)") {
			t.Fatalf("prove printed %q", p)
		}
		v := runCmd(t, cmdVerify, "-dir", out)
		if !strings.Contains(v, "slot 0") || !strings.Contains(v, "slot 1") || strings.Contains(v, "slot 2") ||
			!strings.Contains(v, "ownership VERIFIED") {
			t.Fatalf("verify of a two-slot bundle printed %q", v)
		}
	})

	t.Run("server", func(t *testing.T) {
		srv, err := service.New(service.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer func() {
			ts.Close()
			srv.Close()
		}()
		out := at("own-remote")
		if p := prove(out, "-server", ts.URL); !strings.Contains(p, "registered") {
			t.Fatalf("prove -server printed %q", p)
		}
		if m := readMeta(out); m["model_id"] == nil || m["model_id"] == "" {
			t.Fatalf("meta.json = %v, want the service's model ID", m)
		}
		if v := runCmd(t, cmdVerify, "-server", ts.URL, "-dir", out); !strings.Contains(v, "ownership VERIFIED") {
			t.Fatalf("verify -server printed %q", v)
		}
		if v := runCmd(t, cmdVerify, "-dir", out); !strings.Contains(v, "ownership VERIFIED") {
			t.Fatalf("offline verify of a served proof printed %q", v)
		}
		if v := runCmd(t, cmdVerify, "-aggregate", "-server", ts.URL, "-dir", out, "-dirs", out+","+out); !strings.Contains(v, "aggregated 2 proofs") {
			t.Fatalf("verify -aggregate -server printed %q", v)
		}
		if v := runCmd(t, cmdVerify, "-aggregate", "-dir", out); !strings.Contains(v, "aggregate of 2 proofs VERIFIED") {
			t.Fatalf("offline verify -aggregate printed %q", v)
		}
		claim0 := at("own-remote-claim0")
		prove(claim0, "-server", ts.URL, "-max-errors", "0")
		if v, err := capture(t, cmdVerify, "-server", ts.URL, "-dir", claim0); err == nil || !strings.Contains(v, "ownership claim is 0") {
			t.Fatalf("verify -server of a claim-0 proof: err = %v, printed %q", err, v)
		}
	})

	t.Run("untrusted-server", func(t *testing.T) {
		// A service that answers with a short model ID and a finished job
		// carrying neither key nor proof gets an error, not a panic.
		mux := http.NewServeMux()
		answer := func(route, body string) {
			mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(body))
			})
		}
		answer("GET /healthz", `{"status":"ok"}`)
		answer("POST /v1/models", `{"model_id":"m1","constraints":1,"bundle_slots":1}`)
		answer("POST /v1/models/m1/prove", `{"job_id":"job-1","model_id":"m1","status":"queued"}`)
		answer("GET /v1/jobs/job-1", `{"job_id":"job-1","model_id":"m1","status":"done"}`)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		_, err := capture(t, cmdProve, "-model", model, "-key", key, "-server", ts.URL, "-out", at("own-untrusted"))
		if err == nil || !strings.Contains(err.Error(), "without a verifying key or proof") {
			t.Fatalf("prove against a service with empty answers: err = %v", err)
		}
	})

	t.Run("suspects-committed", func(t *testing.T) {
		err := cmdProve([]string{"-model", model, "-key", key, "-out", at("own-bad"), "-committed", "-suspects", model})
		if err == nil || !strings.Contains(err.Error(), "-committed") {
			t.Fatalf("-suspects with -committed: err = %v", err)
		}
	})
}

// copyDir copies the regular files of one artifact directory into a new
// one.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
