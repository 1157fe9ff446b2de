package lanes

import (
	"fmt"
	"math/big"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"zkrownn/internal/bn254/refimpl"
)

// TestKernelBounds checks the intermediate bounds of every lane kernel
// from its text alone, so it runs on any CPU. It reads the kernel's .s
// file and the header it includes, expands the kernel's own macros, and
// interprets one loop iteration over the toolkit macros of
// lanes_amd64.h, each by the contract its comment states. Each kernel
// has its own modulus m, p or r. A value is an interval [lo·m, hi·m) per
// register, and per 64-byte row of memory:
//
//   - MONTMUL asserts A·b < m·2²⁶⁰ and yields a value below
//     A·b/2²⁶⁰ + m, both operands normalized and below 2²⁶⁰;
//   - SUBP, ADDK, ADDREG, ADDMEM, SUBMEM and the raw VPADDQ/VPSUBQ add
//     and subtract intervals, SUBP and ADDK their multiple of m;
//   - CONDSUB(k) asserts V < 2k and yields V < k;
//   - SHL4 multiplies a normalized value below 2²⁵⁶ by 16;
//   - NORM asserts the value is not negative;
//   - GATHER4 and TLOAD4 read canonical elements, and every UNPACK that
//     feeds a SCATTER4 or a TSTORE4 must hold a canonical value, below m;
//   - memory that the iteration reads before it writes is loop-carried:
//     it has a stated invariant, taken on load and asserted on store.
//
// The per-product bounds it finds must equal the tables in g1.go, g2.go
// and fr.go, row for row. A header macro without a rule here fails the
// test, so a new kernel gets its bounds checked once its macros have
// rules.
func TestKernelBounds(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			stmts, err := kernelText(k.file, k.name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := interpret(k, stmts)
			if err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			want, err := boundTable(k.table, k.name, k.unit)
			if err != nil {
				t.Fatal(err)
			}
			for i := range max(len(got), len(want)) {
				switch {
				case i >= len(want):
					t.Errorf("%s: %s: product %d·%d = %d%s² is not in %s's table", k.name, got[i].loc, got[i].a, got[i].b, got[i].ab, k.unit, k.table)
				case i >= len(got):
					t.Errorf("%s: %s row %q has no product in the kernel", k.name, k.table, want[i].loc)
				case got[i].a != want[i].a || got[i].b != want[i].b || got[i].ab != want[i].ab:
					u := k.unit
					t.Errorf("%s: %s: product %d%s · %d%s = %d%s², but %s row %q says %d%s · %d%s = %d%s²",
						k.name, got[i].loc, got[i].a, u, got[i].b, u, got[i].ab, u, k.table, want[i].loc, want[i].a, u, want[i].b, u, want[i].ab, u)
				}
			}
			t.Logf("%s: %d lane products, all below %s·2²⁶⁰ and matching %s", k.name, len(got), k.unit, k.table)
		})
	}
}

// kernels names each kernel with its file, the Go file whose table holds
// its products, its modulus and the letter its table writes it with, and
// its loop-carried memory: the prefix chain at BX and the scratch's
// AccInv, each with the invariant the kernel keeps. The moduli come from
// refimpl: lanes cannot import fr, which imports lanes.
var kernels = []kernel{
	{"G1Prefix", "g1_amd64.s", "g1.go", refimpl.Fp.M, "p", map[string]int64{"(BX)": 2}},
	{"G1Finish", "g1_amd64.s", "g1.go", refimpl.Fp.M, "p", map[string]int64{"(BX)": 2, "G1Scratch_AccInv(DX)": 2}},
	{"G2Prefix", "g2_amd64.s", "g2.go", refimpl.Fp.M, "p", map[string]int64{"(BX)": 2}},
	{"G2Finish", "g2_amd64.s", "g2.go", refimpl.Fp.M, "p", map[string]int64{
		"(BX)":                     2,
		"G2Scratch_AccInv(DX)":     2,
		"G2Scratch_AccInv+320(DX)": 2,
		"G2Scratch_AccInv+640(DX)": 4, // A0 + A1
	}},
	{"FrMul", "fr_amd64.s", "fr.go", refimpl.Fr.M, "r", nil},
	{"FrButterfly", "fr_amd64.s", "fr.go", refimpl.Fr.M, "r", nil},
}

type kernel struct {
	name, file, table string
	m                 *big.Int
	unit              string
	// carried maps a loop-carried element to its bound in units of m;
	// "(BX)" stands for every element of the prefix chain.
	carried map[string]int64
}

// product is one lane product: its operands' bounds a (the register
// operand) and b (the memory one) in units of m, and ab in units of m².
type product struct {
	loc      string
	a, b, ab int64
}

// boundTable reads the product rows of kernel name from the table in
// the Go file path: a line "//\t<name>" opens the kernel's rows, each
// ending in "<a>u · <b>u  <ab>u²" for the modulus' letter u, and the
// first line that is not indented comment text closes them.
func boundTable(path, name, u string) ([]product, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	head := regexp.MustCompile(`^//\t(\w+)$`)
	row := regexp.MustCompile(`(\d+)` + u + ` · (\d+)` + u + `\s+(\d+)` + u + `²$`)
	var out []product
	in := false
	for i, l := range strings.Split(string(raw), "\n") {
		if h := head.FindStringSubmatch(l); h != nil {
			in = h[1] == name
			continue
		}
		if in = in && strings.HasPrefix(l, "//\t"); !in {
			continue
		}
		if m := row.FindStringSubmatch(l); m != nil {
			var v [3]int64
			for j := range v {
				v[j], _ = strconv.ParseInt(m[j+1], 10, 64)
			}
			out = append(out, product{fmt.Sprintf("%s:%d", path, i+1), v[0], v[1], v[2]})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s has no bound table for %s", path, name)
	}
	return out, nil
}

// kind is what a register or a memory row holds.
type kind uint8

const (
	undefined kind = iota // never written, or clobbered by a macro's scratch use
	limb                  // a limb of a field element
	word                  // a radix-2⁶⁴ word of one (GATHER4, UNPACK)
	index                 // qword indices (INDICES)
	fixed                 // the limb mask or zero (CONSTS)
	perm                  // the transpose's permutations (TPERMS)
)

// val is a register's or a memory row's content: for a limb or a word,
// the element it belongs to lies in [lo·m, hi·m), with normalized limbs
// if norm. from names the UNPACK that made a word.
type val struct {
	kind   kind
	lo, hi int64
	norm   bool
	from   string
}

// The register groups the toolkit macros work on implicitly.
var (
	regA = zregs(0, 5)  // MONTMUL's register operand
	regT = zregs(10, 5) // its product
	regV = zregs(20, 5) // the second element: CONDSUB, ADDMEM, SUBMEM
	regW = zregs(25, 4) // gathered and scattered words
	regD = zregs(25, 5) // CONDSUB's difference
	tmps = []string{"Z5", "Z6", "Z7", "Z8", "Z9", "Z16", "Z17"}
	zreg = regexp.MustCompile(`^Z([0-9]|[12][0-9]|3[01])$`)
)

func zregs(first, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Z%d", first+i)
	}
	return out
}

// addr is one 64-byte memory row: a base register plus an offset whose
// go_asm.h symbols stay symbolic.
type addr struct {
	base, sym string
	off       int64
}

// parseAddr reads an offset expression such as "G2Scratch_den+320+64"
// against base.
func parseAddr(off, base string) (addr, error) {
	a := addr{base: base}
	var syms []string
	for _, term := range strings.Split(off, "+") {
		term = strings.TrimSpace(term)
		if n, err := strconv.ParseInt(term, 10, 64); err == nil {
			a.off += n
		} else if term != "" && wordRE.FindString(term) == term {
			syms = append(syms, term)
		} else {
			return a, fmt.Errorf("cannot read offset %q", off)
		}
	}
	a.sym = strings.Join(syms, "+")
	return a, nil
}

func (a addr) String() string {
	s := a.sym
	if a.off != 0 || s == "" {
		if s != "" {
			s += "+"
		}
		s += strconv.FormatInt(a.off, 10)
	}
	return s + "(" + a.base + ")"
}

// machine interprets one kernel iteration over the modulus m, which
// messages write as unit.
type machine struct {
	m        *big.Int
	unit     string
	reg      map[string]val
	mem      map[addr]val
	carried  map[addr]int64 // element address → invariant; off −1 is every element at base
	products []product
	loc      string // the statement running
}

func interpret(k kernel, stmts []stmt) ([]product, error) {
	m := &machine{m: k.m, unit: k.unit, reg: map[string]val{}, mem: map[addr]val{}, carried: map[addr]int64{}}
	for s, bound := range k.carried {
		off, base, _ := strings.Cut(strings.TrimSuffix(s, ")"), "(")
		a := addr{base: base, off: -1}
		if off != "" {
			var err error
			if a, err = parseAddr(off, base); err != nil {
				return nil, err
			}
		}
		m.carried[a] = bound
	}
	for _, s := range stmts {
		m.loc = s.loc
		if strings.HasSuffix(s.op, ":") {
			// The loop head: an iteration may rely on the constants the
			// prologue set and on loop-carried memory, nothing else.
			for r, v := range m.reg {
				if v.kind != fixed && v.kind != perm {
					delete(m.reg, r)
				}
			}
			clear(m.mem)
			continue
		}
		if err := m.exec(s); err != nil {
			return nil, fmt.Errorf("%s: %v", s.loc, err)
		}
	}
	return m.products, nil
}

func (m *machine) exec(s stmt) error {
	if rule, ok := rules[s.op]; ok {
		if rule == nil {
			return fmt.Errorf("%s is a step of MONTMUL, not for kernels to call", s.op)
		}
		return rule(m, s.args)
	}
	switch s.op {
	case "VPADDQ", "VPSUBQ":
		// The limbwise raw forms: dst = src1 ± src2, Go operand order.
		if len(s.args) != 3 || !zreg.MatchString(s.args[0]) || !zreg.MatchString(s.args[1]) || !zreg.MatchString(s.args[2]) {
			return fmt.Errorf("no rule for %s with operands %v", s.op, s.args)
		}
		x, y := m.reg[s.args[1]], m.reg[s.args[0]]
		if x.kind != limb || y.kind != limb {
			return fmt.Errorf("%s reads %s or %s, which holds no field element", s.op, s.args[1], s.args[0])
		}
		if s.op == "VPADDQ" {
			m.reg[s.args[2]] = val{kind: limb, lo: x.lo + y.lo, hi: x.hi + y.hi}
		} else {
			m.reg[s.args[2]] = val{kind: limb, lo: x.lo - y.hi, hi: x.hi - y.lo}
		}
		return nil
	case "MOVQ", "ADDQ", "SUBQ", "DECQ", "SHLQ", "IMULQ", "JNZ", "VZEROUPPER", "RET":
		// Pointer and loop arithmetic on general registers.
		for _, a := range s.args {
			if zreg.MatchString(a) {
				return fmt.Errorf("no rule for %s on %s", s.op, a)
			}
		}
		return nil
	}
	return fmt.Errorf("no rule for %s", s.op)
}

// group reads a five-register element: the hull of its limbs' intervals.
func (m *machine) group(regs []string) (val, error) {
	v := val{kind: limb, norm: true}
	for i, r := range regs {
		x := m.reg[r]
		if x.kind != limb {
			return val{}, fmt.Errorf("%s holds no field element", r)
		}
		if i == 0 || x.lo < v.lo {
			v.lo = x.lo
		}
		if i == 0 || x.hi > v.hi {
			v.hi = x.hi
		}
		v.norm = v.norm && x.norm
	}
	return v, nil
}

func (m *machine) set(regs []string, v val) {
	for _, r := range regs {
		m.reg[r] = v
	}
}

func (m *machine) clobber(regs []string) {
	for _, r := range regs {
		delete(m.reg, r)
	}
}

// invariant returns the loop-carried bound of the element at a, if any.
func (m *machine) invariant(a addr) (int64, bool) {
	if b, ok := m.carried[addr{base: a.base, off: -1}]; ok {
		return b, true
	}
	b, ok := m.carried[a]
	return b, ok
}

// load reads the element at off(base): rows this iteration stored, or
// loop-carried ones at their invariant.
func (m *machine) load(off, base string) (val, error) {
	a, err := parseAddr(off, base)
	if err != nil {
		return val{}, err
	}
	v := val{kind: limb, norm: true}
	for i := range int64(limbs) {
		row := a
		row.off += 64 * i
		x, ok := m.mem[row]
		if !ok {
			b, carried := m.invariant(a)
			if !carried {
				return val{}, fmt.Errorf("%v is read before the iteration stores it, and is not loop-carried", a)
			}
			x = val{kind: limb, hi: b, norm: true}
		}
		if x.kind != limb {
			return val{}, fmt.Errorf("%v holds no field element", a)
		}
		if i == 0 {
			v.lo, v.hi = x.lo, x.hi
		}
		v.lo, v.hi, v.norm = min(v.lo, x.lo), max(v.hi, x.hi), v.norm && x.norm
	}
	return v, nil
}

// store writes regs to the element at off(base), asserting a
// loop-carried element's invariant.
func (m *machine) store(regs []string, off, base string) error {
	a, err := parseAddr(off, base)
	if err != nil {
		return err
	}
	v, err := m.group(regs)
	if err != nil {
		return err
	}
	if b, ok := m.invariant(a); ok && (v.lo < 0 || v.hi > b || !v.norm) {
		return fmt.Errorf("stores %s, a value below %d%s (normalized: %v), to loop-carried %v, whose invariant is below %d%s",
			strings.Join(regs, ","), v.hi, m.unit, v.norm, a, b, m.unit)
	}
	for i, r := range regs {
		row := a
		row.off += 64 * int64(i)
		m.mem[row] = m.reg[r]
	}
	return nil
}

// below reports whether k·p ≤ 2^bits, so that every value below k·p is
// below 2^bits.
func (m *machine) below(k int64, bits uint) bool {
	x := new(big.Int).Mul(big.NewInt(k), m.m)
	return x.Cmp(new(big.Int).Lsh(big.NewInt(1), bits)) <= 0
}

// operand asserts what a multiplication or a shift needs of its input:
// normalized limbs of a value in [0, 2^bits).
func (m *machine) operand(v val, what string, bits uint) error {
	switch {
	case !v.norm:
		return fmt.Errorf("%s is not normalized", what)
	case v.lo < 0:
		return fmt.Errorf("%s may be negative (down to %d%s)", what, v.lo, m.unit)
	case !m.below(v.hi, bits):
		return fmt.Errorf("%s is below %d%s, which passes 2^%d", what, v.hi, m.unit, bits)
	}
	return nil
}

// canonicalWords asserts that W0–W3, about to be stored, are the words
// of a canonical value, below m: memory holds nothing else.
func (m *machine) canonicalWords() error {
	for _, r := range regW {
		if m.reg[r].kind != word {
			return fmt.Errorf("%s holds no unpacked word", r)
		}
	}
	if v := m.reg[regW[0]]; v.lo < 0 || v.hi > 1 {
		return fmt.Errorf("%s leaves it a value below %d%s, but a stored element must be below %s", v.from, v.hi, m.unit, m.unit)
	}
	return nil
}

// perms asserts that Z30 and Z31 hold TPERMS' permutations.
func (m *machine) perms() error {
	if m.reg["Z30"].kind != perm || m.reg["Z31"].kind != perm {
		return fmt.Errorf("Z30 and Z31 hold no transpose permutations (TPERMS)")
	}
	return nil
}

// multiple reads a Consts offset as its multiple of the modulus.
func multiple(kp string) (int64, error) {
	switch kp {
	case "Consts_p":
		return 1, nil
	case "Consts_p2":
		return 2, nil
	case "Consts_p4":
		return 4, nil
	}
	return 0, fmt.Errorf("%s is no multiple of the modulus in Consts", kp)
}

// montmul is MONTMUL(off, base): T = REDC(A·b) for b at off(base).
func (m *machine) montmul(off, base string) error {
	x, err := m.group(regA)
	if err != nil {
		return err
	}
	y, err := m.load(off, base)
	if err != nil {
		return err
	}
	if err := m.operand(x, "A", 260); err != nil {
		return err
	}
	if err := m.operand(y, "b", 260); err != nil {
		return err
	}
	// A·b < ab·m², so REDC needs ab·m ≤ 2²⁶⁰, and its result is below
	// A·b/2²⁶⁰ + m < (⌈ab·m/2²⁶⁰⌉ + 1)·m.
	ab := x.hi * y.hi
	lim := new(big.Int).Lsh(big.NewInt(1), 260)
	num := new(big.Int).Mul(big.NewInt(ab), m.m)
	if num.Cmp(lim) > 0 {
		ratio, _ := new(big.Rat).SetFrac(lim, m.m).Float64()
		u := m.unit
		return fmt.Errorf("operands below %d%s (A) and %d%s (b) make a product below %d%s², past %s·2²⁶⁰ ≈ %.1f%s²", x.hi, u, y.hi, u, ab, u, u, ratio, u)
	}
	k := num.Add(num, lim.Sub(lim, big.NewInt(1))).Rsh(num, 260).Int64()
	m.clobber(tmps)
	m.set(regT, val{kind: limb, hi: k + 1, norm: true})
	m.products = append(m.products, product{m.loc, x.hi, y.hi, ab})
	return nil
}

// rules interprets each toolkit macro of lanes_amd64.h by its contract.
// MADROW and REDROUND are MONTMUL's steps: a kernel never calls them.
var rules = map[string]func(m *machine, a []string) error{
	"MADROW":   nil,
	"REDROUND": nil,
	"CONSTS": func(m *machine, a []string) error {
		m.set([]string{"Z18", "Z19"}, val{kind: fixed})
		return nil
	},
	"INDICES": func(m *machine, a []string) error {
		m.set([]string{"Z30", "Z31"}, val{kind: index})
		return nil
	},
	"MONTMUL": func(m *machine, a []string) error { return m.montmul(a[0], a[1]) },
	"NORM": func(m *machine, a []string) error {
		v, err := m.group(a)
		if err != nil {
			return err
		}
		if v.lo < 0 {
			return fmt.Errorf("the value may be negative (down to %d%s)", v.lo, m.unit)
		}
		m.clobber([]string{"Z17"})
		v.norm = true
		m.set(a, v)
		return nil
	},
	"GATHER4": func(m *machine, a []string) error {
		// Buckets (SI) and points (DI) hold canonical coordinates.
		if a[1] != "SI" && a[1] != "DI" {
			return fmt.Errorf("%s holds no points", a[1])
		}
		if m.reg[a[2]].kind != index {
			return fmt.Errorf("%s holds no indices", a[2])
		}
		m.set(regW, val{kind: word, hi: 1, norm: true})
		return nil
	},
	"PACK": func(m *machine, a []string) error {
		for _, r := range regW {
			if m.reg[r].kind != word {
				return fmt.Errorf("%s holds no gathered word", r)
			}
		}
		v := m.reg[regW[0]]
		m.clobber([]string{"Z17"})
		m.set(a, val{kind: limb, lo: v.lo, hi: v.hi, norm: true})
		return nil
	},
	"UNPACK": func(m *machine, a []string) error {
		v, err := m.group(a)
		if err != nil {
			return err
		}
		if err := m.operand(v, "the value", 256); err != nil {
			return err
		}
		m.clobber([]string{"Z17"})
		m.set(regW, val{kind: word, lo: v.lo, hi: v.hi, norm: true, from: m.loc})
		return nil
	},
	"SCATTER4": func(m *machine, a []string) error {
		if m.reg[a[2]].kind != index {
			return fmt.Errorf("%s holds no indices", a[2])
		}
		return m.canonicalWords()
	},
	"TPERMS": func(m *machine, a []string) error {
		m.set([]string{"Z30", "Z31"}, val{kind: perm})
		return nil
	},
	"TLOAD4": func(m *machine, a []string) error {
		// The caller's contiguous elements are canonical, as fr keeps
		// them; the frame at SP holds the kernel's packed limbs instead.
		if a[1] == "SP" {
			return fmt.Errorf("SP holds packed limbs, not the caller's elements")
		}
		if err := m.perms(); err != nil {
			return err
		}
		m.clobber([]string{"Z29"})
		m.set(regW, val{kind: word, hi: 1, norm: true})
		return nil
	},
	"TSTORE4": func(m *machine, a []string) error {
		if err := m.perms(); err != nil {
			return err
		}
		if err := m.canonicalWords(); err != nil {
			return err
		}
		m.clobber(append(regW, "Z29"))
		return nil
	},
	"SHL4": func(m *machine, a []string) error {
		v, err := m.group(a[:5])
		if err != nil {
			return err
		}
		if err := m.operand(v, "the value", 256); err != nil {
			return err
		}
		m.clobber([]string{"Z17"})
		m.set(a[5:], val{kind: limb, lo: 16 * v.lo, hi: 16 * v.hi, norm: true})
		return nil
	},
	"SUBP": func(m *machine, a []string) error {
		x, err := m.group(a[:5])
		if err != nil {
			return err
		}
		y, err := m.group(a[5:])
		if err != nil {
			return err
		}
		m.set(a[:5], val{kind: limb, lo: x.lo - y.hi + 1, hi: x.hi - y.lo + 1})
		return nil
	},
	"ADDREG": func(m *machine, a []string) error {
		x, err := m.group(a[:5])
		if err != nil {
			return err
		}
		y, err := m.group(a[5:])
		if err != nil {
			return err
		}
		m.set(a[:5], val{kind: limb, lo: x.lo + y.lo, hi: x.hi + y.hi})
		return nil
	},
	"MOV5": func(m *machine, a []string) error {
		if _, err := m.group(a[:5]); err != nil {
			return err
		}
		for i := range 5 {
			m.reg[a[5+i]] = m.reg[a[i]]
		}
		return nil
	},
	"ADDK": func(m *machine, a []string) error {
		k, err := multiple(a[0])
		if err != nil {
			return err
		}
		x, err := m.group(a[1:6])
		if err != nil {
			return err
		}
		m.set(a[6:], val{kind: limb, lo: x.lo + k, hi: x.hi + k})
		return nil
	},
	"ADDMEM": func(m *machine, a []string) error {
		x, err := m.group(regV)
		if err != nil {
			return err
		}
		y, err := m.load(a[0], a[1])
		if err != nil {
			return err
		}
		m.set(regV, val{kind: limb, lo: x.lo + y.lo, hi: x.hi + y.hi})
		return nil
	},
	"SUBMEM": func(m *machine, a []string) error {
		x, err := m.group(regV)
		if err != nil {
			return err
		}
		y, err := m.load(a[0], a[1])
		if err != nil {
			return err
		}
		m.set(regV, val{kind: limb, lo: x.lo - y.hi, hi: x.hi - y.lo})
		return nil
	},
	"CONDSUB": func(m *machine, a []string) error {
		k, err := multiple(a[0])
		if err != nil {
			return err
		}
		v, err := m.group(regV)
		if err != nil {
			return err
		}
		if v.hi > 2*k {
			return fmt.Errorf("needs V below %d%s, has V below %d%[2]s", 2*k, m.unit, v.hi)
		}
		m.clobber(append(regD, "Z17"))
		m.set(regV, val{kind: limb, lo: min(v.lo, 0), hi: min(v.hi, k), norm: v.norm})
		return nil
	},
	"LOAD5": func(m *machine, a []string) error {
		v, err := m.load(a[0], a[1])
		if err != nil {
			return err
		}
		m.set(a[2:], v)
		return nil
	},
	"STORE5": func(m *machine, a []string) error { return m.store(a[:5], a[5], a[6]) },
}
