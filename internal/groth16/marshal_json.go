package groth16

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
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
// Public inputs use hex field elements instead of an opaque blob —
// they are the part of a payload humans and dispute transcripts need
// to read:
//
//	{"format": 1, "elements": ["00..01", ...]}

// jsonEnvelopeVersion is the wire-envelope version byte. Bump it when
// the envelope structure (not the inner binary format, which has its
// own version) changes incompatibly.
const jsonEnvelopeVersion = 1

// The canonical bytes of the two envelopes: what encoding/json emits for
// the struct forms below, which the encoders here write directly and the
// decoders recognise without a JSON scanner. Anything else that is valid
// JSON for the same structs — whitespace, reordered or unknown keys,
// escapes — decodes through encoding/json to the same result.
var (
	envelopePrefix     = []byte(`{"format":` + strconv.Itoa(jsonEnvelopeVersion) + `,"data":"`)
	envelopeSuffix     = []byte(`"}`)
	publicInputsPrefix = []byte(`{"format":` + strconv.Itoa(jsonEnvelopeVersion) + `,"elements":[`)
	publicInputsSuffix = []byte(`]}`)
)

type jsonEnvelope struct {
	Format int    `json:"format"`
	Data   string `json:"data"`
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
			return fmt.Errorf("groth16: unsupported %s envelope version %d (want %d)",
				what, env.Format, jsonEnvelopeVersion)
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
// part of an API payload. Elements travel as 32-byte big-endian hex in
// a versioned envelope.
type PublicInputs []fr.Element

type publicInputsEnvelope struct {
	Format   int      `json:"format"`
	Elements []string `json:"elements"`
}

// MarshalJSON encodes the vector as versioned hex field elements.
func (pi PublicInputs) MarshalJSON() ([]byte, error) { return pi.AppendJSON(nil), nil }

// publicInputJSONLen is the encoded size of one element and the comma
// (or closing bracket) after it: two quotes around 64 hex digits.
const publicInputJSONLen = 2*fr.Bytes + 3

// AppendJSON appends the bytes of MarshalJSON to dst, growing it once.
func (pi PublicInputs) AppendJSON(dst []byte) []byte {
	dst = slices.Grow(dst, len(publicInputsPrefix)+len(pi)*publicInputJSONLen+len(publicInputsSuffix))
	dst = append(dst, publicInputsPrefix...)
	for i := range pi {
		if i > 0 {
			dst = append(dst, ',')
		}
		b := pi[i].Bytes()
		dst = append(dst, '"')
		dst = hex.AppendEncode(dst, b[:])
		dst = append(dst, '"')
	}
	return append(dst, publicInputsSuffix...)
}

// decodeCanonicalPublicInputs decodes b when it is, byte for byte, what
// AppendJSON writes for some vector (hex digits in either case): one
// pass, one allocation. It reports false for every other input, invalid
// ones included, and leaves those — and their error messages — to the
// general decoder.
func decodeCanonicalPublicInputs(b []byte) (PublicInputs, bool) {
	body, ok := cutAffixes(b, publicInputsPrefix, publicInputsSuffix)
	if !ok || (len(body) != 0 && (len(body)+1)%publicInputJSONLen != 0) {
		return nil, false
	}
	out := make(PublicInputs, (len(body)+1)/publicInputJSONLen)
	var raw [fr.Bytes]byte
	for i := range out {
		// "<64 hex digits>" and, between elements, a comma.
		e := body[i*publicInputJSONLen:]
		if e[0] != '"' || e[publicInputJSONLen-2] != '"' || (i < len(out)-1 && e[publicInputJSONLen-1] != ',') {
			return nil, false
		}
		if _, err := hex.Decode(raw[:], e[1:publicInputJSONLen-2]); err != nil {
			return nil, false
		}
		if out[i].SetBytesCanonical(raw[:]) != nil {
			return nil, false
		}
	}
	return out, true
}

// decodePublicInputsJSON is the general decoder: any JSON spelling of the
// envelope, through encoding/json. It is the reference the canonical
// decoder is fuzzed against.
func decodePublicInputsJSON(b []byte) (PublicInputs, error) {
	var env publicInputsEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("groth16: public inputs envelope: %w", err)
	}
	if env.Format != jsonEnvelopeVersion {
		return nil, fmt.Errorf("groth16: unsupported public inputs envelope version %d (want %d)",
			env.Format, jsonEnvelopeVersion)
	}
	out := make(PublicInputs, len(env.Elements))
	for i, h := range env.Elements {
		// hex.DecodeString is strict (Sscanf %x would silently stop at
		// the first non-hex rune and accept a trailing-garbage payload).
		raw, err := hex.DecodeString(h)
		if err != nil {
			return nil, fmt.Errorf("groth16: public input %d: %w", i, err)
		}
		if err := out[i].SetBytesCanonical(raw); err != nil {
			return nil, fmt.Errorf("groth16: public input %d: %w", i, err)
		}
	}
	return out, nil
}

// UnmarshalJSON decodes a public-input envelope, rejecting
// non-canonical (≥ modulus) elements.
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
