package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/groth16"
)

// legacyRecordMeta is the registry's persisted record as earlier
// releases wrote it, field for field and in their order. Records on
// disk in this form must keep restoring.
type legacyRecordMeta struct {
	ID              string    `json:"id"`
	Name            string    `json:"name,omitempty"`
	Committed       bool      `json:"committed,omitempty"`
	CommittedDigest string    `json:"committed_digest,omitempty"`
	BundleSlots     int       `json:"bundle_slots,omitempty"`
	FracBits        int       `json:"frac_bits"`
	MaxErrors       int       `json:"max_errors"`
	LayerIndex      int       `json:"layer_index"`
	Constraints     int       `json:"constraints"`
	PublicInputs    int       `json:"public_inputs"`
	CreatedAt       time.Time `json:"created_at"`
}

func jsonKeys(t *testing.T, b []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestRegistryRestoresLegacyRecords writes plain, pre-bundle, bundle and
// committed records in the legacy layout, restarts a server on them, and
// checks that each restores to the same ModelInfo, that the committed
// one still holds proofs to its pinned digest, and that writing a
// restored record back keeps every key name and value.
func TestRegistryRestoresLegacyRecords(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Options{RegistryDir: dir})
	reg := register(t, ts.URL, 4)
	ts.Close()
	srv.Close()
	vk, err := os.ReadFile(filepath.Join(dir, reg.ModelID+".vk"))
	if err != nil {
		t.Fatal(err)
	}

	var digest fr.Element
	digest.SetUint64(12345)
	db := digest.Bytes()
	created := time.Date(2025, 3, 4, 5, 6, 7, 0, time.UTC)
	legacy := []legacyRecordMeta{
		{ID: "plain", Name: "p", BundleSlots: 1, FracBits: 16, MaxErrors: 2, LayerIndex: 1, Constraints: 100, PublicInputs: 40, CreatedAt: created},
		{ID: "prebundle", FracBits: 12, LayerIndex: 1, Constraints: 90, PublicInputs: 30, CreatedAt: created},
		{ID: "bundle", Name: "b", BundleSlots: 3, FracBits: 16, MaxErrors: 4, LayerIndex: 1, Constraints: 300, PublicInputs: 120, CreatedAt: created},
		{ID: "committed", Committed: true, CommittedDigest: fmt.Sprintf("%x", db[:]), BundleSlots: 1, FracBits: 16, MaxErrors: 1, LayerIndex: 1, Constraints: 110, PublicInputs: 2, CreatedAt: created},
	}
	want := map[string]ModelInfo{
		"plain":     {ModelID: "plain", Name: "p", BundleSlots: 1, FracBits: 16, MaxErrors: 2, Constraints: 100, PublicInputs: 40, CreatedAt: "2025-03-04T05:06:07Z"},
		"prebundle": {ModelID: "prebundle", BundleSlots: 1, FracBits: 12, Constraints: 90, PublicInputs: 30, CreatedAt: "2025-03-04T05:06:07Z"},
		"bundle":    {ModelID: "bundle", Name: "b", BundleSlots: 3, FracBits: 16, MaxErrors: 4, Constraints: 300, PublicInputs: 120, CreatedAt: "2025-03-04T05:06:07Z"},
		"committed": {ModelID: "committed", Committed: true, BundleSlots: 1, FracBits: 16, MaxErrors: 1, Constraints: 110, PublicInputs: 2, CreatedAt: "2025-03-04T05:06:07Z"},
	}
	legacyJSON := map[string][]byte{}
	for _, m := range legacy {
		b, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		legacyJSON[m.ID] = b
		if err := os.WriteFile(filepath.Join(dir, m.ID+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, m.ID+".vk"), vk, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, ts = newTestServer(t, Options{RegistryDir: dir})
	for id, w := range want {
		var got ModelResponse
		if resp := getJSON(t, ts.URL+"/v1/models/"+id, &got); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", id, resp.StatusCode)
		}
		if got.ModelInfo != w {
			t.Errorf("%s restored as %+v, want %+v", id, got.ModelInfo, w)
		}
	}

	// The committed record still binds proofs to its pinned digest.
	rec, _ := srv.reg.get("committed")
	var claim, other fr.Element
	claim.SetOne()
	other.SetUint64(54321)
	if _, err := rec.verdict(groth16.PublicInputs{digest, claim}); err != nil {
		t.Errorf("restored committed record rejects its own digest: %v", err)
	}
	if _, err := rec.verdict(groth16.PublicInputs{other, claim}); err == nil {
		t.Error("restored committed record accepts a proof naming another digest")
	}

	// Writing a restored record back keeps every name and value.
	for _, m := range legacy {
		rec, _ := srv.reg.get(m.ID)
		if _, err := srv.reg.put(rec); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, m.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonKeys(t, b), jsonKeys(t, legacyJSON[m.ID]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s persisted with keys %v, want %v", m.ID, got, want)
		}
		var back legacyRecordMeta
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatal(err)
		}
		if !back.CreatedAt.Equal(m.CreatedAt) {
			t.Errorf("%s: created_at %v, want %v", m.ID, back.CreatedAt, m.CreatedAt)
		}
		back.CreatedAt = m.CreatedAt
		if back != m {
			t.Errorf("%s persisted as %+v, want %+v", m.ID, back, m)
		}
	}
}
