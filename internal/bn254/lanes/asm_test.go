package lanes

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// The kernel text as TestKernelBounds reads it: comments stripped,
// continuations joined, the kernel's own macros expanded, and the
// toolkit macros of the headers it includes left as calls.

// stmt is one statement after expansion: a toolkit macro call or a raw
// instruction, with its operands, and where it came from.
type stmt struct {
	op   string
	args []string
	loc  string
}

// macro is a #define: params is nil for an object-like one.
type macro struct {
	params  []string
	body    string
	toolkit bool // defined in an included header, interpreted by a rule
}

var (
	defineRE  = regexp.MustCompile(`^#define\s+(\w+)(\(([^)]*)\))?\s*(.*)$`)
	includeRE = regexp.MustCompile(`^#include\s+"([^"]+)"$`)
	textRE    = regexp.MustCompile(`^TEXT\s+·(\w+)\(SB\)`)
	callRE    = regexp.MustCompile(`^(\w+)\s*(?:\((.*)\))?$`)
	wordRE    = regexp.MustCompile(`\w+`)
)

// logicalLines returns the file's lines with comments stripped and
// backslash continuations joined, each with its first line number.
func logicalLines(path string) ([]string, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var lines []string
	var nums []int
	var cur strings.Builder
	start := 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		l := sc.Text()
		if i := strings.Index(l, "//"); i >= 0 {
			l = l[:i]
		}
		l = strings.TrimSpace(l)
		if cur.Len() == 0 {
			start = n
		}
		if cont, ok := strings.CutSuffix(l, `\`); ok {
			cur.WriteString(cont + " ")
			continue
		}
		cur.WriteString(l)
		lines = append(lines, strings.TrimSpace(cur.String()))
		nums = append(nums, start)
		cur.Reset()
	}
	return lines, nums, sc.Err()
}

// kernelText returns the expanded statements of the TEXT block name in
// file.
func kernelText(file, name string) ([]stmt, error) {
	lines, nums, err := logicalLines(file)
	if err != nil {
		return nil, err
	}
	macros := map[string]*macro{}
	define := func(l string, toolkit bool) {
		m := defineRE.FindStringSubmatch(l)
		d := &macro{body: m[4], toolkit: toolkit}
		if m[2] != "" {
			d.params = splitArgs(m[3])
		}
		macros[m[1]] = d
	}
	var body []stmt
	in := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "#define"):
			define(l, false)
		case strings.HasPrefix(l, "#include"):
			// go_asm.h and textflag.h are generated or toolchain headers:
			// their offsets and flags stay symbolic.
			h := includeRE.FindStringSubmatch(l)[1]
			hl, _, err := logicalLines(filepath.Join(filepath.Dir(file), h))
			if os.IsNotExist(err) {
				continue
			} else if err != nil {
				return nil, err
			}
			for _, l := range hl {
				if strings.HasPrefix(l, "#define") {
					define(l, true)
				}
			}
		case textRE.MatchString(l):
			in = textRE.FindStringSubmatch(l)[1] == name
		case in && l != "":
			loc := fmt.Sprintf("%s:%d", file, nums[i])
			for _, s := range splitStmts(l) {
				if err := expand(&body, macros, s, loc, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("%s has no TEXT ·%s", file, name)
	}
	for n, m := range macros {
		if _, ok := rules[n]; m.toolkit && !ok {
			return nil, fmt.Errorf("the header defines %s, which TestKernelBounds has no rule for", n)
		}
	}
	return body, nil
}

// expand appends statement s to out, expanding the kernel's own macros
// and substituting object-like ones; toolkit calls stay calls.
func expand(out *[]stmt, macros map[string]*macro, s, loc string, depth int) error {
	if depth > 16 {
		return fmt.Errorf("%s: macro recursion", loc)
	}
	s = substitute(s, macros, nil)
	m := callRE.FindStringSubmatch(s)
	if m == nil {
		op, rest, _ := strings.Cut(strings.Replace(s, "\t", " ", 1), " ")
		*out = append(*out, stmt{op: op, args: splitArgs(rest), loc: loc})
		return nil
	}
	name, args := m[1], splitArgs(m[2])
	d := macros[name]
	if d == nil || d.toolkit {
		if d != nil && len(args) != len(d.params) {
			return fmt.Errorf("%s: %s takes %d arguments, has %d", loc, name, len(d.params), len(args))
		}
		*out = append(*out, stmt{op: name, args: args, loc: loc + " " + s})
		return nil
	}
	if len(args) != len(d.params) {
		return fmt.Errorf("%s: %s takes %d arguments, has %d", loc, name, len(d.params), len(args))
	}
	env := map[string]string{}
	for i, p := range d.params {
		env[p] = args[i]
	}
	for _, b := range splitStmts(substitute(d.body, nil, env)) {
		if err := expand(out, macros, b, loc+" "+s+" ›", depth+1); err != nil {
			return err
		}
	}
	return nil
}

// substitute replaces the words of s that are params in env, then those
// that name object-like macros with a one-word body (symbol aliases such
// as S_DEN), repeatedly.
func substitute(s string, macros map[string]*macro, env map[string]string) string {
	for range 8 {
		t := wordRE.ReplaceAllStringFunc(s, func(w string) string {
			if v, ok := env[w]; ok {
				return v
			}
			if d := macros[w]; d != nil && d.params == nil && wordRE.FindString(d.body) == d.body {
				return d.body
			}
			return w
		})
		if t == s {
			return s
		}
		s, env = t, nil
	}
	return s
}

// splitStmts splits a line at the semicolons outside parentheses.
func splitStmts(l string) []string {
	var out []string
	for _, s := range splitTop(l, ';') {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// splitArgs splits an argument list at the commas outside parentheses.
func splitArgs(l string) []string {
	if strings.TrimSpace(l) == "" {
		return nil
	}
	out := splitTop(l, ',')
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}

func splitTop(l string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(l); i++ {
		switch l[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, l[start:i])
				start = i + 1
			}
		}
	}
	return append(out, l[start:])
}
