package curve

import (
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/lanes"
)

// TestG1FlushPortableBranch turns the IFMA gate off and reruns the G1
// MSM, small-MSM threshold, streamed and fixed-base tests through the
// scalar flush, which on IFMA hardware no other test reaches from the
// MSM entry points.
func TestG1FlushPortableBranch(t *testing.T) {
	t.Logf("G1 flush backend with the gate on: %s", Backend())
	defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
	lanes.SupportIFMA = false
	t.Logf("G1 flush backend with the gate off: %s", Backend())
	for _, c := range []struct {
		name string
		test func(*testing.T)
	}{
		{"MultiExpG1MatchesNaive", TestMultiExpG1MatchesNaive},
		{"MultiExpG1ZeroScalarsAndInfinities", TestMultiExpG1ZeroScalarsAndInfinities},
		{"MultiExpG1StraddlesWindowThresholds", TestMultiExpG1StraddlesWindowThresholds},
		{"MultiExpSmallPathAroundThreshold", TestMultiExpSmallPathAroundThreshold},
		{"MultiExpAllWindowWidthsAgree", TestMultiExpAllWindowWidthsAgree},
		{"MultiExpWitnessShapedScalars", TestMultiExpWitnessShapedScalars},
		{"StreamMSMMatchesInMemory", TestStreamMSMMatchesInMemory},
		{"FixedBaseG1MatchesBitSerial", TestFixedBaseG1MatchesBitSerial},
		{"G1FlushAgainstRefimpl", TestG1FlushAgainstRefimpl},
	} {
		t.Run(c.name, c.test)
	}
}

// TestG1LanesBitIdentical checks that the gate does not move a bit of
// what the flush's callers return: a resident MSM over a full batch
// layout, and the setup's MulBatch, with IFMA on and off.
func TestG1LanesBitIdentical(t *testing.T) {
	if !lanes.SupportIFMA {
		t.Skip("no AVX-512 IFMA on this CPU: there is no lane path to compare")
	}
	rng := rand.New(rand.NewSource(32))
	points, scalars := msmTestVectors(rng, 3000)
	g := G1Generator()
	table := NewG1FixedBaseTable(&g)
	ks := fixedBaseScalars(rng, fixedBaseBlock+37)
	run := func(gate bool) (G1Jac, []G1Affine, *G1FixedBaseTable) {
		defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
		lanes.SupportIFMA = gate
		return MultiExpG1(points, scalars), table.MulBatch(ks), NewG1FixedBaseTable(&g)
	}
	msmOn, mulOn, tableOn := run(true)
	msmOff, mulOff, tableOff := run(false)
	var affOn, affOff G1Affine
	affOn.FromJacobian(&msmOn)
	affOff.FromJacobian(&msmOff)
	if affOn != affOff {
		t.Fatal("MultiExpG1 differs between the lane and scalar flush")
	}
	for i := range mulOn {
		if mulOn[i] != mulOff[i] {
			t.Fatalf("MulBatch output %d differs between the lane and scalar flush", i)
		}
	}
	for i := range tableOn.entries {
		if tableOn.entries[i] != tableOff.entries[i] {
			t.Fatalf("fixed-base table entry %d differs between the lane and scalar flush", i)
		}
	}
}

// TestG2FlushPortableBranch is TestG1FlushPortableBranch in G2: the IFMA
// gate off, the G2 MSM, streamed, small-MSM and fixed-base tests rerun
// through the scalar flush.
func TestG2FlushPortableBranch(t *testing.T) {
	t.Logf("G2 flush backend with the gate on: %s", Backend())
	defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
	lanes.SupportIFMA = false
	t.Logf("G2 flush backend with the gate off: %s", Backend())
	for _, c := range []struct {
		name string
		test func(*testing.T)
	}{
		{"MultiExpG2MatchesNaive", TestMultiExpG2MatchesNaive},
		{"MultiExpG2Decomposed", TestMultiExpG2Decomposed},
		{"MultiExpG2AgainstRefimpl", TestMultiExpG2AgainstRefimpl},
		{"StreamMSMG2MatchesInMemory", TestStreamMSMG2MatchesInMemory},
		{"FixedBaseG2MatchesBitSerial", TestFixedBaseG2MatchesBitSerial},
		{"G2FlushAgainstRefimpl", TestG2FlushAgainstRefimpl},
	} {
		t.Run(c.name, c.test)
	}
}

// TestG2LanesBitIdentical is TestG1LanesBitIdentical in G2: MultiExpG2,
// the G2 MulBatch and the G2 table build, with IFMA on and off.
func TestG2LanesBitIdentical(t *testing.T) {
	if !lanes.SupportIFMA {
		t.Skip("no AVX-512 IFMA on this CPU: there is no lane path to compare")
	}
	rng := rand.New(rand.NewSource(37))
	points, scalars := msmBenchG2Input(3000)
	g := G2Generator()
	table := NewG2FixedBaseTable(&g)
	ks := fixedBaseScalars(rng, fixedBaseBlock+37)
	run := func(gate bool) (G2Jac, []G2Affine, *G2FixedBaseTable) {
		defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
		lanes.SupportIFMA = gate
		return MultiExpG2(points, scalars), table.MulBatch(ks), NewG2FixedBaseTable(&g)
	}
	msmOn, mulOn, tableOn := run(true)
	msmOff, mulOff, tableOff := run(false)
	var affOn, affOff G2Affine
	affOn.FromJacobian(&msmOn)
	affOff.FromJacobian(&msmOff)
	if affOn != affOff {
		t.Fatal("MultiExpG2 differs between the lane and scalar flush")
	}
	for i := range mulOn {
		if mulOn[i] != mulOff[i] {
			t.Fatalf("MulBatch output %d differs between the lane and scalar flush", i)
		}
	}
	for i := range tableOn.entries {
		if tableOn.entries[i] != tableOff.entries[i] {
			t.Fatalf("fixed-base table entry %d differs between the lane and scalar flush", i)
		}
	}
}
