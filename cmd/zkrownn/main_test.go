package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd runs one subcommand in-process and returns what it printed on
// standard output. Every case below keeps its claims holding: cmdVerify
// exits the process on claim = 0.
func runCmd(t *testing.T, cmd func([]string) error, args ...string) string {
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
	if cerr != nil {
		t.Fatalf("%v: %v\n%s", args, cerr, printed)
	}
	return string(printed)
}

// TestCLIRoundTrip drives train → keygen → prove → verify on a tiny
// model, through the local prover in its three claim shapes: plain,
// committed, and a two-slot suspect bundle.
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

	t.Run("suspects-committed", func(t *testing.T) {
		err := cmdProve([]string{"-model", model, "-key", key, "-out", at("own-bad"), "-committed", "-suspects", model})
		if err == nil || !strings.Contains(err.Error(), "-committed") {
			t.Fatalf("-suspects with -committed: err = %v", err)
		}
	})
}
