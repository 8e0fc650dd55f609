// Package canon provides a canonical JSON encoding: a deterministic,
// byte-stable serialization used wherever equal configurations must
// produce equal bytes — the content-addressed job store hashes canonical
// spec encodings into job keys, and the experiment tables are emitted in
// the same form so downstream tooling can diff them.
//
// The encoding differs from encoding/json in exactly the ways that matter
// for stability:
//
//   - map keys are emitted in sorted order;
//   - struct fields appear in declaration order with every field present
//     (`omitempty` is ignored — defaults are explicit, so adding a field
//     with its zero value to a request changes nothing);
//   - nil slices encode as [], nil maps as {}, nil pointers and
//     interfaces as null;
//   - floats use the shortest representation that round-trips (NaN and
//     the infinities are encoding errors);
//   - strings are escaped minimally and identically on every platform
//     (no HTML escaping);
//   - a json.RawMessage embeds compacted; invalid JSON in one is an
//     encoding error.
//
// Each struct type's field names and order are read once and cached.
//
// The byte output of this package is a compatibility promise: job keys
// are hashes of it, so any change to the encoding invalidates every
// stored result. The golden tests pin it.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// rawMessageType matches json.RawMessage values, which are passed through
// (the caller vouches for their stability).
var rawMessageType = reflect.TypeOf(json.RawMessage(nil))

// Marshal returns the canonical compact encoding of v.
func Marshal(v any) ([]byte, error) {
	return Append(nil, v)
}

// Append appends the canonical compact encoding of v to dst.
func Append(dst []byte, v any) ([]byte, error) {
	e := encoder{buf: dst}
	if err := e.value(reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// MarshalIndent returns the canonical encoding of v indented by
// json.Indent, as json.MarshalIndent lays out its output: the same bytes
// as Marshal modulo whitespace.
func MarshalIndent(v any, prefix, indent string) ([]byte, error) {
	b, err := Marshal(v)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, b, prefix, indent); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Hash returns the hex SHA-256 of the canonical compact encoding of v:
// the content address of a configuration.
func Hash(v any) (string, error) {
	b, err := Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// field is one encoded struct field: its index in the struct and its
// JSON name, quoted, escaped and followed by the colon.
type field struct {
	index int
	name  []byte
}

// plan is a struct type's encoding plan, built once per type: the
// encoded fields in declaration order, or the error every value of the
// type fails with.
type plan struct {
	fields []field
	err    error
}

// plans caches each struct type's plan (reflect.Type -> *plan), so field
// tags are parsed once per type rather than once per value.
var plans sync.Map

// planFor returns t's plan, building it on first use.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p, _ := plans.LoadOrStore(t, buildPlan(t))
	return p.(*plan)
}

// buildPlan reads t's exported fields: named by their json tag when it
// names them, skipped when the tag is "-".
func buildPlan(t reflect.Type) *plan {
	p := &plan{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := f.Name
		tag, tagged := f.Tag.Lookup("json")
		if tagged {
			base, _, _ := strings.Cut(tag, ",")
			if base == "-" {
				continue
			}
			if base != "" {
				name = base
			}
		}
		if f.Anonymous && f.Type.Kind() == reflect.Struct && !tagged {
			// Embedded structs without an explicit tag would flatten like
			// encoding/json's; with a tag they nest under the name.
			p.err = fmt.Errorf("canon: untagged embedded struct %s (flattening is ambiguous; add a json tag)", f.Name)
			return p
		}
		p.fields = append(p.fields, field{index: i, name: append(AppendString(nil, name), ':')})
	}
	return p
}

// encoder accumulates the canonical encoding.
type encoder struct {
	buf []byte
}

func (e *encoder) value(v reflect.Value) error {
	if !v.IsValid() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		e.buf = strconv.AppendBool(e.buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.buf = strconv.AppendUint(e.buf, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("canon: cannot encode %v", f)
		}
		e.buf = strconv.AppendFloat(e.buf, f, 'g', -1, 64)
	case reflect.String:
		e.buf = AppendString(e.buf, v.String())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		return e.value(v.Elem())
	case reflect.Slice:
		if v.Type() == rawMessageType {
			return e.raw(v.Bytes())
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			// []byte encodes as base64, like encoding/json.
			e.buf = AppendString(e.buf, base64.StdEncoding.EncodeToString(v.Bytes()))
			return nil
		}
		return e.array(v)
	case reflect.Array:
		return e.array(v)
	case reflect.Map:
		return e.mapValue(v)
	case reflect.Struct:
		return e.structValue(v, planFor(v.Type()))
	default:
		return fmt.Errorf("canon: unsupported kind %s", v.Kind())
	}
	return nil
}

// raw embeds a json.RawMessage. It must hold valid JSON, which is
// compacted, so an encoding is always one line. Nothing is HTML-escaped.
func (e *encoder) raw(b []byte) error {
	if len(b) == 0 {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	out := bytes.NewBuffer(e.buf)
	if err := json.Compact(out, b); err != nil {
		return fmt.Errorf("canon: json.RawMessage: %w", err)
	}
	e.buf = out.Bytes()
	return nil
}

func (e *encoder) array(v reflect.Value) error {
	n := v.Len()
	if n == 0 {
		e.buf = append(e.buf, "[]"...)
		return nil
	}
	// Elements of a struct type share one plan, looked up once.
	var p *plan
	if t := v.Type().Elem(); t.Kind() == reflect.Struct {
		p = planFor(t)
	}
	e.buf = append(e.buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		var err error
		if p != nil {
			err = e.structValue(v.Index(i), p)
		} else {
			err = e.value(v.Index(i))
		}
		if err != nil {
			return err
		}
	}
	e.buf = append(e.buf, ']')
	return nil
}

// mapValue encodes a map with keys sorted by their encoded form. Key
// types are restricted to strings and integers, which cover every use in
// this repo and have an obvious total order.
func (e *encoder) mapValue(v reflect.Value) error {
	n := v.Len()
	if n == 0 {
		e.buf = append(e.buf, "{}"...)
		return nil
	}
	type kv struct {
		name string
		val  reflect.Value
	}
	pairs := make([]kv, 0, n)
	iter := v.MapRange()
	for iter.Next() {
		k := iter.Key()
		var name string
		switch k.Kind() {
		case reflect.String:
			name = k.String()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			name = strconv.FormatInt(k.Int(), 10)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			name = strconv.FormatUint(k.Uint(), 10)
		default:
			return fmt.Errorf("canon: unsupported map key kind %s", k.Kind())
		}
		pairs = append(pairs, kv{name, iter.Value()})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].name < pairs[j].name })
	e.buf = append(e.buf, '{')
	for i, p := range pairs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = AppendString(e.buf, p.name)
		e.buf = append(e.buf, ':')
		if err := e.value(p.val); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, '}')
	return nil
}

// structValue encodes a struct by its type's plan.
func (e *encoder) structValue(v reflect.Value, p *plan) error {
	if p.err != nil {
		return p.err
	}
	if len(p.fields) == 0 {
		e.buf = append(e.buf, "{}"...)
		return nil
	}
	e.buf = append(e.buf, '{')
	for i, f := range p.fields {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, f.name...)
		if err := e.value(v.Field(f.index)); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, '}')
	return nil
}

const hexDigits = "0123456789abcdef"

// AppendString appends s to dst as a JSON string with canon's minimal,
// platform-independent escaping: quote, backslash and control characters
// are escaped and invalid UTF-8 is replaced, as encoding/json does;
// nothing else is (no HTML escaping).
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, copied verbatim
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\uFFFD"...)
			i++
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
