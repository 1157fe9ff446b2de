package frontend

import (
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/groth16"
	"zkrownn/internal/r1cs"
)

// vEq reports whether the variable's value equals e.
func vEq(v Variable, e fr.Element) bool {
	val := v.Value()
	return val.Equal(&e)
}

// vIsZero reports whether the variable's value is zero.
func vIsZero(v Variable) bool {
	val := v.Value()
	return val.IsZero()
}

// vIsOne reports whether the variable's value is one.
func vIsOne(v Variable) bool {
	val := v.Value()
	return val.IsOne()
}

func frOf(v uint64) fr.Element {
	var e fr.Element
	e.SetUint64(v)
	return e
}

// compileAndCheck compiles and asserts the builder's witness satisfies
// the system.
func compileAndCheck(t *testing.T, b *Builder) (*r1cs.CompiledSystem, []fr.Element) {
	t.Helper()
	res, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := res.System.IsSatisfied(res.Witness); !ok {
		t.Fatalf("witness does not satisfy constraint %d", bad)
	}
	return res.System, res.Witness
}

func TestAddMulConstantsAreFree(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("x", frOf(3))
	y := b.SecretInput("y", frOf(4))
	sum := b.Add(x, y)
	var seven fr.Element
	seven.SetUint64(7)
	if !vEq(sum, seven) {
		t.Fatal("3+4 != 7")
	}
	scaled := b.MulConst(sum, frOf(10))
	var seventy fr.Element
	seventy.SetUint64(70)
	if !vEq(scaled, seventy) {
		t.Fatal("70 expected")
	}
	if b.NbConstraints() != 0 {
		t.Fatalf("linear ops emitted %d constraints", b.NbConstraints())
	}
	b.AssertEqual(scaled, b.ConstUint64(70))
	compileAndCheck(t, b)
}

func TestMulEmitsOneConstraint(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("x", frOf(6))
	y := b.SecretInput("y", frOf(7))
	p := b.Mul(x, y)
	if b.NbConstraints() != 1 {
		t.Fatalf("Mul emitted %d constraints", b.NbConstraints())
	}
	b.AssertEqual(p, b.ConstUint64(42))
	compileAndCheck(t, b)
}

func TestMulByConstantVariable(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("x", frOf(6))
	c := b.ConstUint64(5)
	p := b.Mul(x, c)
	if b.NbConstraints() != 0 {
		t.Fatal("constant multiplication should be free")
	}
	var thirty fr.Element
	thirty.SetUint64(30)
	if !vEq(p, thirty) {
		t.Fatal("6·5 != 30")
	}
}

func TestSubNegZeroHandling(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("x", frOf(10))
	d := b.Sub(x, x)
	if !vIsZero(d) {
		t.Fatal("x-x != 0")
	}
	if len(d.lc) != 0 {
		t.Fatal("x-x should cancel to the empty LC")
	}
	n := b.Neg(x)
	s := b.Add(x, n)
	if !vIsZero(s) {
		t.Fatal("x + (-x) != 0")
	}
}

func TestToBinaryFromBinary(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("x", frOf(0b1011001))
	bits := b.ToBinary(x, 8)
	want := []uint64{1, 0, 0, 1, 1, 0, 1, 0}
	for i, bit := range bits {
		v := bit.Value()
		var w fr.Element
		w.SetUint64(want[i])
		if !v.Equal(&w) {
			t.Fatalf("bit %d = %v, want %d", i, v, want[i])
		}
	}
	back := b.FromBinary(bits)
	if !vEq(back, x.val) {
		t.Fatal("FromBinary(ToBinary(x)) != x")
	}
	compileAndCheck(t, b)
}

func TestToBinaryOverflowUnsatisfiable(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("x", frOf(300)) // does not fit 8 bits
	_ = b.ToBinary(x, 8)
	res, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := res.System.IsSatisfied(res.Witness); ok {
		t.Fatal("overflowing decomposition produced a satisfiable witness")
	}
}

func TestIsZero(t *testing.T) {
	b := NewBuilder()
	z := b.SecretInput("z", fr.Element{})
	nz := b.SecretInput("nz", frOf(17))
	iz := b.IsZero(z)
	inz := b.IsZero(nz)
	if !vIsOne(iz) {
		t.Fatal("IsZero(0) != 1")
	}
	if !vIsZero(inz) {
		t.Fatal("IsZero(17) != 0")
	}
	compileAndCheck(t, b)
}

func TestSelect(t *testing.T) {
	b := NewBuilder()
	cond := b.SecretInput("c", frOf(1))
	x := b.SecretInput("x", frOf(100))
	y := b.SecretInput("y", frOf(200))
	s := b.Select(cond, x, y)
	var hundred fr.Element
	hundred.SetUint64(100)
	if !vEq(s, hundred) {
		t.Fatal("Select(1, x, y) != x")
	}
	s2 := b.Select(b.Zero(), x, y)
	var twoHundred fr.Element
	twoHundred.SetUint64(200)
	if !vEq(s2, twoHundred) {
		t.Fatal("Select(0, x, y) != y")
	}
	compileAndCheck(t, b)
}

func TestInverseAndDiv(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("x", frOf(12))
	y := b.SecretInput("y", frOf(4))
	q := b.Div(x, y)
	var three fr.Element
	three.SetUint64(3)
	if !vEq(q, three) {
		t.Fatal("12/4 != 3")
	}
	compileAndCheck(t, b)
}

func TestInverseOfZeroUnsatisfiable(t *testing.T) {
	b := NewBuilder()
	z := b.SecretInput("z", fr.Element{})
	_ = b.Inverse(z)
	res, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := res.System.IsSatisfied(res.Witness); ok {
		t.Fatal("inverse of zero satisfiable")
	}
}

func TestPublicWireReordering(t *testing.T) {
	b := NewBuilder()
	// Interleave secret and public declarations; Compile must put the
	// publics first regardless.
	s1 := b.SecretInput("s1", frOf(2))
	p1 := b.PublicInput("out1", frOf(4))
	s2 := b.SecretInput("s2", frOf(3))
	p2 := b.PublicInput("out2", frOf(9))
	b.AssertEqual(b.Mul(s1, s1), p1)
	b.AssertEqual(b.Mul(s2, s2), p2)

	sys, w := compileAndCheck(t, b)
	if sys.NbPublic != 3 {
		t.Fatalf("NbPublic = %d, want 3", sys.NbPublic)
	}
	pub := sys.PublicValues(w)
	var four, nine fr.Element
	four.SetUint64(4)
	nine.SetUint64(9)
	if !pub[0].Equal(&four) || !pub[1].Equal(&nine) {
		t.Fatalf("public values wrong: %v %v", pub[0], pub[1])
	}
	if sys.PublicNames[1] != "out1" || sys.PublicNames[2] != "out2" {
		t.Fatalf("public names wrong: %v", sys.PublicNames)
	}
}

func TestSumWide(t *testing.T) {
	b := NewBuilder()
	rng := rand.New(rand.NewSource(80))
	var want fr.Element
	vars := make([]Variable, 100)
	for i := range vars {
		v := frOf(uint64(rng.Intn(1000)))
		vars[i] = b.SecretInput("", v)
		want.Add(&want, &v)
	}
	s := b.Sum(vars...)
	if !vEq(s, want) {
		t.Fatal("wide sum wrong")
	}
	if b.NbConstraints() != 0 {
		t.Fatal("Sum should be free")
	}
	r := b.Reduce(s)
	if b.NbConstraints() != 1 {
		t.Fatal("Reduce should cost exactly one constraint")
	}
	if !vEq(r, want) {
		t.Fatal("reduced sum wrong")
	}
	compileAndCheck(t, b)
}

func TestDoubleFinalizeFails(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("x", frOf(1))
	b.AssertEqual(x, b.One())
	// The first Compile finalizes the builder.
	if _, err := b.Compile(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Compile(); err == nil {
		t.Fatal("second Compile should fail")
	}
}

// TestEndToEndWithGroth16 wires the frontend into the proof system: the
// cubic demo circuit built through the builder, compiled, proven and
// verified.
func TestEndToEndWithGroth16(t *testing.T) {
	build := func(xVal, outVal fr.Element) (*CompileResult, error) {
		b := NewBuilder()
		out := b.PublicInput("out", outVal)
		x := b.SecretInput("x", xVal)
		x2 := b.Mul(x, x)
		x3 := b.Mul(x2, x)
		sum := b.Add(b.Add(x3, x), b.ConstUint64(5))
		b.AssertEqual(sum, out)
		return b.Compile()
	}

	res, err := build(frOf(3), frOf(35))
	if err != nil {
		t.Fatal(err)
	}
	sys, w := res.System, res.Witness
	rng := rand.New(rand.NewSource(81))
	pk, vk, err := groth16.Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := groth16.Verify(vk, proof, sys.PublicValues(w)); err != nil {
		t.Fatal(err)
	}

	// The setup/prove split: constraints built from dummy inputs must be
	// identical (same digest), and a proof from the real witness must
	// verify against the dummy-built system's keys.
	resDummy, err := build(fr.Element{}, fr.Element{})
	if err != nil {
		t.Fatal(err)
	}
	sysDummy := resDummy.System
	if sysDummy.DigestHex() != sys.DigestHex() {
		t.Fatal("circuit is not data-oblivious")
	}
	pk2, vk2, err := groth16.Setup(sysDummy, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Solve-many against the dummy-compiled system: rebind the real
	// inputs and let the solver program rebuild the witness.
	w2, err := sysDummy.SolveAssignment(res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	proof2, err := groth16.Prove(sysDummy, pk2, w2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := groth16.Verify(vk2, proof2, sys.PublicValues(w)); err != nil {
		t.Fatal("proof against dummy-setup keys rejected:", err)
	}
}

// TestConstantAssertionsAreCheckedAtBuild: an assertion between
// constants emits no row, and one that fails is Compile's error; an
// assertion on a wire still costs its row.
func TestConstantAssertionsAreCheckedAtBuild(t *testing.T) {
	b := NewBuilder()
	x := b.SecretInput("", frOf(1))
	b.AssertBoolean(b.Zero())
	b.AssertBoolean(b.One())
	b.AssertEqual(b.ConstUint64(7), b.Add(b.ConstUint64(3), b.ConstUint64(4)))
	if n := b.NbConstraints(); n != 0 {
		t.Fatalf("assertions between constants emitted %d rows", n)
	}
	b.AssertBoolean(x)
	b.AssertEqual(x, b.One())
	if n := b.NbConstraints(); n != 2 {
		t.Fatalf("assertions on a wire emitted %d rows, want 2", n)
	}
	if _, err := b.Compile(); err != nil {
		t.Fatal(err)
	}

	for name, fail := range map[string]func(b *Builder){
		"boolean": func(b *Builder) { b.AssertBoolean(b.ConstUint64(2)) },
		"equal":   func(b *Builder) { b.AssertEqual(b.ConstUint64(3), b.ConstUint64(4)) },
	} {
		b := NewBuilder()
		b.PublicOutput("out", b.SecretInput("", frOf(5)))
		fail(b)
		if _, err := b.Compile(); err == nil {
			t.Errorf("%s: a failed constant assertion compiled", name)
		}
	}
}
