package groth16

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"slices"
	"strconv"

	"zkrownn/internal/bn254/fr"
)

// JSON wire envelopes. API payloads wrap the canonical binary encodings
// (WriteTo/ReadFrom, which carry their own magic + format-version
// header) in base64 inside a small versioned JSON object, so the shape
// of a proof or key on the wire is stable across releases: old clients
// reject newer envelope versions with a clear error instead of
// misparsing bytes.
//
//	{"format": 1, "data": "<base64 of the binary encoding>"}
//
// Public inputs are readable numbers instead of an opaque blob — they
// are the part of a payload humans and dispute transcripts need to
// read, and the part that grows with the model:
//
//	{"format": 2, "elements": ["-4821", "0", "17", ...]}

// jsonEnvelopeVersion is the wire-envelope version byte. Bump it when
// the envelope structure (not the inner binary format, which has its
// own version) changes incompatibly.
const jsonEnvelopeVersion = 1

// publicInputsVersion is 2 since elements are signed decimals: format 1
// (hex) and the bare arrays of older CLIs fail with the version error.
const publicInputsVersion = 2

// The canonical bytes of the two envelopes: what encoding/json emits for
// the struct forms below, which the encoders here write directly and the
// decoders recognise without a JSON scanner. Anything else that is valid
// JSON for the same structs — whitespace, reordered or unknown keys,
// escapes — decodes through encoding/json to the same result.
var (
	envelopePrefix     = []byte(`{"format":` + strconv.Itoa(jsonEnvelopeVersion) + `,"data":"`)
	envelopeSuffix     = []byte(`"}`)
	publicInputsPrefix = []byte(`{"format":` + strconv.Itoa(publicInputsVersion) + `,"elements":[`)
	publicInputsSuffix = []byte(`]}`)
)

type jsonEnvelope struct {
	Format int    `json:"format"`
	Data   string `json:"data"`
}

func versionError(what string, got, want int) error {
	return fmt.Errorf("groth16: unsupported %s envelope version %d (want %d)", what, got, want)
}

// cutAffixes returns b without prefix and suffix, or false when it does
// not carry both.
func cutAffixes(b, prefix, suffix []byte) ([]byte, bool) {
	b, ok := bytes.CutPrefix(b, prefix)
	if !ok {
		return nil, false
	}
	return bytes.CutSuffix(b, suffix)
}

// appendEnvelope appends the envelope of the binary encoding bin to dst.
// Base64 needs no JSON escaping, so these are json.Marshal(jsonEnvelope)'s
// bytes.
func appendEnvelope(dst, bin []byte) []byte {
	dst = slices.Grow(dst, len(envelopePrefix)+base64.StdEncoding.EncodedLen(len(bin))+len(envelopeSuffix))
	dst = append(dst, envelopePrefix...)
	dst = base64.StdEncoding.AppendEncode(dst, bin)
	return append(dst, envelopeSuffix...)
}

func marshalEnvelope(v io.WriterTo) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		return nil, err
	}
	return appendEnvelope(nil, buf.Bytes()), nil
}

// canonicalEnvelopeData returns the base64 text of an envelope in
// canonical form. The alphabet check is what makes skipping the JSON
// scanner safe: no quote, escape or control character (base64 decoding
// would skip a raw newline that JSON forbids inside a string) gets by.
func canonicalEnvelopeData(b []byte) ([]byte, bool) {
	data, ok := cutAffixes(b, envelopePrefix, envelopeSuffix)
	if !ok {
		return nil, false
	}
	for _, c := range data {
		if !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '+' || c == '/' || c == '=') {
			return nil, false
		}
	}
	return data, true
}

func unmarshalEnvelope(b []byte, what string, readFrom func(*bytes.Reader) error) error {
	data, ok := canonicalEnvelopeData(b)
	if !ok {
		var env jsonEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			return fmt.Errorf("groth16: %s envelope: %w", what, err)
		}
		if env.Format != jsonEnvelopeVersion {
			return versionError(what, env.Format, jsonEnvelopeVersion)
		}
		data = []byte(env.Data)
	}
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(data)))
	n, err := base64.StdEncoding.Decode(raw, data)
	if err != nil {
		return fmt.Errorf("groth16: %s envelope: %w", what, err)
	}
	r := bytes.NewReader(raw[:n])
	if err := readFrom(r); err != nil {
		return fmt.Errorf("groth16: %s envelope: %w", what, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("groth16: %s envelope has %d trailing bytes", what, r.Len())
	}
	return nil
}

// MarshalJSON encodes the proof as a versioned base64 envelope of its
// binary WriteTo encoding.
func (p *Proof) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil), nil }

// AppendJSON appends the bytes of MarshalJSON to dst: for callers
// assembling a larger message without a second pass over it.
func (p *Proof) AppendJSON(dst []byte) []byte {
	var bin [proofEncodedSize]byte
	return appendEnvelope(dst, p.appendBinary(bin[:0]))
}

// UnmarshalJSON decodes a proof envelope, running the full ReadFrom
// validation (curve and subgroup membership of every point): a
// tampered proof fails here, before any verifier work.
func (p *Proof) UnmarshalJSON(b []byte) error {
	return unmarshalEnvelope(b, "proof", func(r *bytes.Reader) error {
		_, err := p.ReadFrom(r)
		return err
	})
}

// MarshalJSON encodes the verifying key as a versioned base64 envelope
// of its binary WriteTo encoding.
func (vk *VerifyingKey) MarshalJSON() ([]byte, error) { return marshalEnvelope(vk) }

// UnmarshalJSON decodes a verifying key envelope (full ReadFrom
// validation, including the e(α,β) re-derivation).
func (vk *VerifyingKey) UnmarshalJSON(b []byte) error {
	return unmarshalEnvelope(b, "verifying key", func(r *bytes.Reader) error {
		_, err := vk.ReadFrom(r)
		return err
	})
}

// PublicInputs is a JSON-marshalable public-input vector: the instance
// part of an API payload and of the CLI's public.json. Each element is
// the decimal string of its representative in (−r/2, r/2), so a
// quantized weight or a claim bit costs a few digits, not 64, and a
// digest-sized value stays exact in readers that parse JSON numbers as
// float64. Every value has exactly one accepted spelling: '-' only on a
// negative, never '+', no leading zero, zero as "0", |s| ≤ (r−1)/2.
type PublicInputs []fr.Element

type publicInputsEnvelope struct {
	Format   int      `json:"format"`
	Elements []string `json:"elements"`
}

// maxPublicInput is the decimal of (r−1)/2, the largest magnitude
// spelled: a spelling as long as it compares as a number byte by byte.
var maxPublicInput = new(big.Int).Rsh(fr.Modulus(), 1).String()

// pow19 is 10¹⁹, the largest power of ten in a uint64: the radix the
// decoder takes digits in.
var pow19 = fr.NewElement(1e19)

// MarshalJSON encodes the vector as a versioned signed-decimal envelope.
func (pi PublicInputs) MarshalJSON() ([]byte, error) { return pi.AppendJSON(nil), nil }

// AppendJSON appends the bytes of MarshalJSON to dst.
func (pi PublicInputs) AppendJSON(dst []byte) []byte {
	// `"-4821",` is 8 bytes: a guess, not a bound, for one growth.
	dst = slices.Grow(dst, len(publicInputsPrefix)+8*len(pi)+len(publicInputsSuffix))
	dst = append(dst, publicInputsPrefix...)
	for i := range pi {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		m, neg := pi[i].SignedLimbs()
		if neg {
			dst = append(dst, '-')
		}
		if m[1]|m[2]|m[3] == 0 {
			dst = strconv.AppendUint(dst, m[0], 10)
		} else {
			var be [fr.Bytes]byte
			for j, l := range m {
				binary.BigEndian.PutUint64(be[fr.Bytes-8*(j+1):], l)
			}
			dst = new(big.Int).SetBytes(be[:]).Append(dst, 10)
		}
		dst = append(dst, '"')
	}
	return append(dst, publicInputsSuffix...)
}

// parseSignedDecimal reads one element's spelling: the one parser of
// both decode paths, so the two accept exactly the same strings. It
// allocates nothing, whatever the width: the digits go into the field
// 19 at a time, the first chunk taking the remainder.
func parseSignedDecimal[S string | []byte](s S) (e fr.Element, ok bool) {
	digits := s
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		digits = s[1:]
	}
	n := len(digits)
	if n == 0 || n > len(maxPublicInput) || digits[0] == '0' && (n > 1 || neg) ||
		n == len(maxPublicInput) && string(digits) > maxPublicInput {
		return e, false
	}
	for k := (n-1)%19 + 1; len(digits) > 0; digits, k = digits[k:], 19 {
		var v uint64
		for i := 0; i < k; i++ {
			if digits[i] < '0' || digits[i] > '9' {
				return e, false
			}
			v = 10*v + uint64(digits[i]-'0')
		}
		if !e.IsZero() {
			e.Mul(&e, &pow19)
		}
		var c fr.Element
		e.Add(&e, c.SetUint64(v))
	}
	if neg {
		e.Neg(&e)
	}
	return e, true
}

// decodeCanonicalPublicInputs decodes b when it is, byte for byte, what
// AppendJSON writes for some vector: a pass to count the elements, one
// allocation (an element spends at least four bytes, `"0",`), a pass to
// parse them. It reports false for every other input, invalid ones
// included, and leaves those — and their errors — to the general decoder.
func decodeCanonicalPublicInputs(b []byte) (PublicInputs, bool) {
	body, ok := cutAffixes(b, publicInputsPrefix, publicInputsSuffix)
	if !ok || len(body) == 0 {
		return PublicInputs{}, ok
	}
	n := bytes.Count(body, []byte{','}) + 1
	if 4*n-1 > len(body) {
		return nil, false
	}
	out := make(PublicInputs, n)
	for i := range out {
		s, rest, _ := bytes.Cut(body, []byte{','})
		if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
			return nil, false
		}
		if out[i], ok = parseSignedDecimal(s[1 : len(s)-1]); !ok {
			return nil, false
		}
		body = rest
	}
	return out, true
}

// decodePublicInputsJSON is the general decoder: any JSON spelling of the
// envelope, through encoding/json. It is the reference the canonical
// decoder is fuzzed against.
func decodePublicInputsJSON(b []byte) (PublicInputs, error) {
	if t := bytes.TrimLeft(b, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		return nil, versionError("public inputs", 0, publicInputsVersion) // an unversioned bare array
	}
	var env publicInputsEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("groth16: public inputs envelope: %w", err)
	}
	if env.Format != publicInputsVersion {
		return nil, versionError("public inputs", env.Format, publicInputsVersion)
	}
	out := make(PublicInputs, len(env.Elements))
	for i, s := range env.Elements {
		var ok bool
		if out[i], ok = parseSignedDecimal(s); !ok {
			return nil, fmt.Errorf("groth16: public input %d: %.40q is not a canonical signed decimal within ±(r-1)/2", i, s)
		}
	}
	return out, nil
}

// UnmarshalJSON decodes a public-input envelope, rejecting every
// spelling but the canonical one of each element.
func (pi *PublicInputs) UnmarshalJSON(b []byte) error {
	out, ok := decodeCanonicalPublicInputs(b)
	if !ok {
		var err error
		if out, err = decodePublicInputsJSON(b); err != nil {
			return err
		}
	}
	*pi = out
	return nil
}
