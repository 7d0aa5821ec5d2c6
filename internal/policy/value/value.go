// Package value defines the five value types of the Pesos policy
// language (§3.3): integers, strings, hashes, public keys and tuples,
// plus their text syntax, binary encoding and unification-friendly
// equality. It is shared by the policy compiler, the interpreter and
// the certified-fact authority package.
package value

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"unicode"
)

// Kind discriminates value types.
type Kind uint8

// Value kinds.
const (
	KInvalid Kind = iota
	KInt
	KString
	KHash
	KPubKey
	KTuple
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KString:
		return "string"
	case KHash:
		return "hash"
	case KPubKey:
		return "pubkey"
	case KTuple:
		return "tuple"
	default:
		return "invalid"
	}
}

// V is one policy value. Exactly the field selected by Kind is
// meaningful. Hashes are 32-byte SHA-256 digests; public keys are the
// canonical hex key fingerprints produced by tlsutil.KeyFingerprint.
type V struct {
	Kind  Kind
	Int   int64
	Str   string   // KString payload
	Hash  [32]byte // KHash payload
	Key   string   // KPubKey payload (hex fingerprint)
	Tuple *Tuple   // KTuple payload
}

// Tuple is a named sequence of values: name(v1, ..., vn).
type Tuple struct {
	Name string
	Args []V
}

// Int returns an integer value.
func Int(i int64) V { return V{Kind: KInt, Int: i} }

// Str returns a string value.
func Str(s string) V { return V{Kind: KString, Str: s} }

// Hash returns a hash value.
func Hash(h [32]byte) V { return V{Kind: KHash, Hash: h} }

// PubKey returns a public-key value from a hex fingerprint.
func PubKey(fingerprint string) V { return V{Kind: KPubKey, Key: fingerprint} }

// Tup returns a tuple value.
func Tup(name string, args ...V) V {
	return V{Kind: KTuple, Tuple: &Tuple{Name: name, Args: args}}
}

// Equal reports deep equality of two values.
func (v V) Equal(o V) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KInt:
		return v.Int == o.Int
	case KString:
		return v.Str == o.Str
	case KHash:
		return v.Hash == o.Hash
	case KPubKey:
		return v.Key == o.Key
	case KTuple:
		if v.Tuple.Name != o.Tuple.Name || len(v.Tuple.Args) != len(o.Tuple.Args) {
			return false
		}
		for i := range v.Tuple.Args {
			if !v.Tuple.Args[i].Equal(o.Tuple.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders two values of the same kind for the relational
// predicates: integers numerically, strings lexicographically. Other
// kinds support only equality; Compare returns an error for them.
func (v V) Compare(o V) (int, error) {
	if v.Kind != o.Kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", v.Kind, o.Kind)
	}
	switch v.Kind {
	case KInt:
		switch {
		case v.Int < o.Int:
			return -1, nil
		case v.Int > o.Int:
			return 1, nil
		}
		return 0, nil
	case KString:
		return strings.Compare(v.Str, o.Str), nil
	default:
		return 0, fmt.Errorf("value: %s values are not ordered", v.Kind)
	}
}

// strEscaper escapes what the lexer reads in a string: quote, \, newline.
var strEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`, "\n", `\n`)

// String renders the value in policy-language syntax; the policy
// parser reads it back as the same value (lang.ParseValue).
func (v V) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprint(v.Int)
	case KString:
		return "'" + strEscaper.Replace(v.Str) + "'"
	case KHash:
		return "h'" + hex.EncodeToString(v.Hash[:]) + "'"
	case KPubKey:
		return "k'" + v.Key + "'"
	case KTuple:
		parts := make([]string, len(v.Tuple.Args))
		for i, a := range v.Tuple.Args {
			parts[i] = a.String()
		}
		name := v.Tuple.Name
		if !isTupleIdent(name) {
			name = Str(name).String() // quoted: any name reads back
		}
		return name + "(" + strings.Join(parts, ", ") + ")"
	default:
		return "<invalid>"
	}
}

// isTupleIdent: name reads back unquoted as a tuple's name, a lowercase
// identifier that is not an operator word.
func isTupleIdent(name string) bool {
	for i, r := range name {
		if !(r == '_' || unicode.IsLetter(r) || i > 0 && unicode.IsDigit(r)) || i == 0 && unicode.IsUpper(r) {
			return false
		}
	}
	return !slices.Contains([]string{"", "and", "or", "AND", "OR"}, name)
}

// Binary encoding tags.
const (
	tagInt    byte = 1
	tagString byte = 2
	tagHash   byte = 3
	tagPubKey byte = 4
	tagTuple  byte = 5
)

// AppendBinary appends the compact binary encoding of v to buf.
func (v V) AppendBinary(buf []byte) ([]byte, error) { return v.appendBinary(buf, 0) }

func (v V) appendBinary(buf []byte, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return nil, errors.New("value: tuple nested too deep")
	}
	switch v.Kind {
	case KInt:
		buf = append(buf, tagInt)
		return binary.AppendVarint(buf, v.Int), nil
	case KString:
		buf = append(buf, tagString)
		buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
		return append(buf, v.Str...), nil
	case KHash:
		buf = append(buf, tagHash)
		return append(buf, v.Hash[:]...), nil
	case KPubKey:
		buf = append(buf, tagPubKey)
		buf = binary.AppendUvarint(buf, uint64(len(v.Key)))
		return append(buf, v.Key...), nil
	case KTuple:
		buf = append(buf, tagTuple)
		buf = binary.AppendUvarint(buf, uint64(len(v.Tuple.Name)))
		buf = append(buf, v.Tuple.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(v.Tuple.Args)))
		var err error
		for _, a := range v.Tuple.Args {
			if buf, err = a.appendBinary(buf, depth+1); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("value: cannot encode kind %s", v.Kind)
	}
}

// MaxDepth is how deep tuples nest in a value or a policy's tuple
// pattern: a tuple's arguments sit one deeper than it, and nothing sits
// deeper than MaxDepth. The decoders refuse what nests deeper, so the
// encoders and the policy compiler refuse to produce it.
const MaxDepth = 16

// DecodeBinary decodes one value from data, returning it and the
// remaining bytes. It allocates in proportion to the bytes it reads.
func DecodeBinary(data []byte) (V, []byte, error) { return decode(data, 0) }

func decode(data []byte, depth int) (V, []byte, error) {
	if depth > MaxDepth {
		return V{}, nil, errors.New("value: tuple nested too deep")
	}
	if len(data) == 0 {
		return V{}, nil, errors.New("value: empty input")
	}
	tag, data := data[0], data[1:]
	switch tag {
	case tagInt:
		i, n := binary.Varint(data)
		if n <= 0 {
			return V{}, nil, errors.New("value: bad int")
		}
		return Int(i), data[n:], nil
	case tagString:
		s, rest, err := decodeLenPrefixed(data)
		if err != nil {
			return V{}, nil, err
		}
		return Str(string(s)), rest, nil
	case tagHash:
		if len(data) < 32 {
			return V{}, nil, errors.New("value: truncated hash")
		}
		var h [32]byte
		copy(h[:], data)
		return Hash(h), data[32:], nil
	case tagPubKey:
		s, rest, err := decodeLenPrefixed(data)
		if err != nil {
			return V{}, nil, err
		}
		return PubKey(string(s)), rest, nil
	case tagTuple:
		name, rest, err := decodeLenPrefixed(data)
		if err != nil {
			return V{}, nil, err
		}
		nArgs, n := binary.Uvarint(rest)
		if n <= 0 || nArgs > 1024 {
			return V{}, nil, errors.New("value: bad tuple arity")
		}
		rest = rest[n:]
		var args []V
		for i := uint64(0); i < nArgs; i++ {
			var a V
			if a, rest, err = decode(rest, depth+1); err != nil {
				return V{}, nil, err
			}
			if args == nil {
				// Sized once an argument has decoded, by the bytes left
				// (each argument takes two or more): nested input that
				// fails deeper down allocates nothing on its way.
				args = make([]V, 0, min(nArgs, 1+uint64(len(rest))/2))
			}
			args = append(args, a)
		}
		return Tup(string(name), args...), rest, nil
	default:
		return V{}, nil, fmt.Errorf("value: unknown tag %d", tag)
	}
}

func decodeLenPrefixed(data []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return nil, nil, errors.New("value: truncated length-prefixed field")
	}
	return data[n : n+int(l)], data[n+int(l):], nil
}

// Marshal encodes v to a fresh buffer.
func (v V) Marshal() ([]byte, error) { return v.AppendBinary(nil) }

// Unmarshal decodes a value that must consume all of data.
func Unmarshal(data []byte) (V, error) {
	v, rest, err := DecodeBinary(data)
	if err != nil {
		return V{}, err
	}
	if len(rest) != 0 {
		return V{}, errors.New("value: trailing bytes")
	}
	return v, nil
}

// ParseHash parses a 64-char hex digest into a hash value.
func ParseHash(hexStr string) (V, error) {
	b, err := hex.DecodeString(hexStr)
	if err != nil || len(b) != 32 {
		return V{}, fmt.Errorf("value: bad hash literal %q", hexStr)
	}
	var h [32]byte
	copy(h[:], b)
	return Hash(h), nil
}
