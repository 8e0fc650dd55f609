package canon

import (
	"bytes"
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Unmarshal parses the canonical JSON in data into v, the inverse of
// Marshal. v must point to a zero value; under that contract Unmarshal
// stores exactly what json.Unmarshal stores and returns exactly its error.
//
// It decodes in one pass over the struct plans Marshal uses and takes
// only what the compact encoding writes: no whitespace, every struct
// field by its exact name and in declaration order, integers without
// fraction or exponent, and floats as strconv.ParseFloat reads them.
// null decodes as nil into a pointer or a slice, [] as an empty non-nil
// slice, and a json.RawMessage keeps the value's bytes, a literal null
// included. A string of printable ASCII without escapes is taken as it
// is; any other string token goes to json.Unmarshal on its own. At the
// first byte the encoding would not have written, Unmarshal zeroes *v
// and returns json.Unmarshal(data, v). Types the pass does not take
// (maps, interfaces, arrays, byte slices, json.Number, types with their
// own UnmarshalJSON or UnmarshalText, and structs whose fields
// encoding/json might read by other names) go to json.Unmarshal
// directly.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() && decodable(rv.Type().Elem()) {
		d := decoder{data: data}
		if d.value(rv.Elem()) && d.pos == len(data) {
			return nil
		}
		rv.Elem().SetZero()
	}
	return json.Unmarshal(data, v)
}

var (
	numberType          = reflect.TypeOf(json.Number(""))
	unmarshalerType     = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	textUnmarshalerType = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
)

// decodables caches decodable's answer per type (reflect.Type -> bool).
var decodables sync.Map

// decodable reports whether the one pass takes every value of t.
func decodable(t reflect.Type) bool {
	if ok, hit := decodables.Load(t); hit {
		return ok.(bool)
	}
	ok := takes(t, make(map[reflect.Type]bool))
	decodables.Store(t, ok)
	return ok
}

// takes reports whether t and every type it reaches (seen excluded) is a
// kind the one pass decodes, has no unmarshaler of its own apart from
// json.RawMessage's, and, for a struct, is read by encoding/json under
// the names its plan writes.
func takes(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] || t == rawMessageType {
		return true
	}
	seen[t] = true
	if pt := reflect.PointerTo(t); pt.Implements(unmarshalerType) || pt.Implements(textUnmarshalerType) {
		return false
	}
	switch t.Kind() {
	case reflect.Bool, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return true
	case reflect.String:
		return t != numberType
	case reflect.Pointer:
		return takes(t.Elem(), seen)
	case reflect.Slice:
		return t.Elem().Kind() != reflect.Uint8 && takes(t.Elem(), seen)
	case reflect.Struct:
		if !jsonReadsPlan(t) {
			return false
		}
		for _, f := range planFor(t).fields {
			if !takes(t.Field(f.index).Type, seen) {
				return false
			}
		}
		return true
	}
	return false
}

// jsonReadsPlan reports whether encoding/json reads each field of struct
// t under the name t's plan writes for it. It answers no for any
// embedded field, a ",string" option, two fields of one name, and a tag
// name with anything but ASCII letters, digits, '_', '-' and '.' (json
// ignores some tag names, and the rest need not be handled).
func jsonReadsPlan(t reflect.Type) bool {
	if planFor(t).err != nil {
		return false
	}
	names := make(map[string]bool)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			return false
		}
		if !f.IsExported() {
			continue
		}
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			continue
		}
		if slices.Contains(strings.Split(opts, ","), "string") {
			return false
		}
		for _, c := range []byte(name) {
			if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c) || c == '_' || c == '-' || c == '.') {
				return false
			}
		}
		if name == "" {
			name = f.Name
		}
		if names[name] {
			return false
		}
		names[name] = true
	}
	return true
}

// maxDepth bounds the nesting the one pass follows; deeper input goes to
// json.Unmarshal, which applies its own limit.
const maxDepth = 1000

// decoder is one pass over canonical JSON. Each method reports whether
// the input at pos was in canonical form, and leaves pos past it if so.
type decoder struct {
	data  []byte
	pos   int
	depth int
}

// value decodes one value into v, which the pass takes (see takes).
func (d *decoder) value(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		switch {
		case d.literal("true"):
			v.SetBool(true)
		case d.literal("false"):
			v.SetBool(false)
		default:
			return false
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, ok := d.intValue()
		if !ok || v.OverflowInt(n) {
			return false
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		tok, integral := d.number()
		if !integral || tok[0] == '-' {
			return false
		}
		n, ok := digits(tok)
		if !ok || v.OverflowUint(n) {
			return false
		}
		v.SetUint(n)
	case reflect.Float32, reflect.Float64:
		tok, _ := d.number()
		if tok == nil {
			return false
		}
		f, err := strconv.ParseFloat(string(tok), v.Type().Bits())
		if err != nil {
			return false
		}
		v.SetFloat(f)
	case reflect.String:
		s, ok := d.stringValue()
		if !ok {
			return false
		}
		v.SetString(s)
	case reflect.Pointer:
		if d.literal("null") {
			v.SetZero()
			return true
		}
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		return d.value(v.Elem())
	case reflect.Slice:
		if v.Type() == rawMessageType {
			start := d.pos
			if !d.skip() {
				return false
			}
			v.SetBytes(append([]byte(nil), d.data[start:d.pos]...))
			return true
		}
		if d.literal("null") {
			v.SetZero()
			return true
		}
		return d.array(v)
	case reflect.Struct:
		return d.object(v, planFor(v.Type()))
	default:
		return false
	}
	return true
}

// object decodes a struct by its plan: every field, in order.
func (d *decoder) object(v reflect.Value, p *plan) bool {
	if !d.open('{') {
		return false
	}
	for i, f := range p.fields {
		if i > 0 && !d.next(',') {
			return false
		}
		if !bytes.HasPrefix(d.data[d.pos:], f.name) {
			return false
		}
		d.pos += len(f.name)
		if !d.value(v.Field(f.index)) {
			return false
		}
	}
	return d.close('}')
}

// array decodes a slice. A slice of numbers or bools is sized by its
// commas up front; any other grows as append grows it.
func (d *decoder) array(v reflect.Value) bool {
	if !d.open('[') {
		return false
	}
	t := v.Type()
	if d.close(']') {
		v.Set(reflect.MakeSlice(t, 0, 0))
		return true
	}
	var p *plan
	switch t.Elem().Kind() {
	case reflect.Struct:
		p = planFor(t.Elem())
	case reflect.String, reflect.Pointer, reflect.Slice:
	default:
		if end := bytes.IndexByte(d.data[d.pos:], ']'); end > 0 {
			v.Set(reflect.MakeSlice(t, 0, 1+bytes.Count(d.data[d.pos:d.pos+end], []byte(","))))
		}
	}
	for n := 0; ; n++ {
		if n == v.Cap() {
			v.Grow(1)
		}
		v.SetLen(n + 1)
		if p != nil {
			if !d.object(v.Index(n), p) {
				return false
			}
		} else if !d.value(v.Index(n)) {
			return false
		}
		if !d.next(',') {
			return d.close(']')
		}
	}
}

// next consumes the byte c.
func (d *decoder) next(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// open consumes the bracket c and enters one level of nesting.
func (d *decoder) open(c byte) bool {
	if d.depth == maxDepth || !d.next(c) {
		return false
	}
	d.depth++
	return true
}

// close consumes the bracket c and leaves one level of nesting.
func (d *decoder) close(c byte) bool {
	if !d.next(c) {
		return false
	}
	d.depth--
	return true
}

// literal consumes s.
func (d *decoder) literal(s string) bool {
	end := d.pos + len(s)
	if end > len(d.data) || string(d.data[d.pos:end]) != s {
		return false
	}
	d.pos = end
	return true
}

// stringValue consumes a string. Printable ASCII without escapes is
// taken as it is; encoding/json decodes any other string token, so
// escapes and invalid UTF-8 come out as json.Unmarshal gives them.
func (d *decoder) stringValue() (string, bool) {
	start := d.pos
	if !d.next('"') {
		return "", false
	}
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := string(d.data[d.pos:i])
			d.pos = i + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			d.pos = start
			var s string
			return s, d.skipString() && json.Unmarshal(d.data[start:d.pos], &s) == nil
		}
	}
	return "", false
}

// number consumes a JSON number and returns its bytes (nil if none is
// there); integral reports a number without fraction or exponent.
func (d *decoder) number() (tok []byte, integral bool) {
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i)
	default:
		return nil, false
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		if i++; i == len(data) || !isDigit(data[i]) {
			return nil, false
		}
		i = skipDigits(data, i)
		integral = false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || !isDigit(data[i]) {
			return nil, false
		}
		i = skipDigits(data, i)
		integral = false
	}
	tok, d.pos = data[d.pos:i], i
	return tok, integral
}

// intValue consumes an integral number that fits an int64. It reads the
// digits itself: strconv.ParseInt reads the same values, but through it
// BenchmarkDecodeResult took about a quarter longer.
func (d *decoder) intValue() (int64, bool) {
	tok, integral := d.number()
	if !integral {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	n, ok := digits(tok)
	switch {
	case !ok:
		return 0, false
	case neg && n <= 1<<63:
		return -int64(n), true
	case !neg && n <= math.MaxInt64:
		return int64(n), true
	}
	return 0, false
}

// digits returns the value of a run of decimal digits, false past
// 2^64 - 1.
func digits(tok []byte) (uint64, bool) {
	var n uint64
	for _, c := range tok {
		if n > math.MaxUint64/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if n < uint64(c-'0') {
			return 0, false
		}
	}
	return n, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

// skip consumes any compact JSON value, which a json.RawMessage keeps as
// it is: strings may hold escapes and any byte from 0x20 up, as
// encoding/json's scanner allows.
func (d *decoder) skip() bool {
	if d.pos == len(d.data) {
		return false
	}
	switch d.data[d.pos] {
	case '{':
		if !d.open('{') {
			return false
		}
		if d.close('}') {
			return true
		}
		for d.skipString() && d.next(':') && d.skip() {
			if !d.next(',') {
				return d.close('}')
			}
		}
		return false
	case '[':
		if !d.open('[') {
			return false
		}
		if d.close(']') {
			return true
		}
		for d.skip() {
			if !d.next(',') {
				return d.close(']')
			}
		}
		return false
	case '"':
		return d.skipString()
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	tok, _ := d.number()
	return tok != nil
}

// skipString consumes any JSON string.
func (d *decoder) skipString() bool {
	if !d.next('"') {
		return false
	}
	data := d.data
	for i := d.pos; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if i++; i == len(data) {
				return false
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(data)-i <= 4 {
					return false
				}
				for _, h := range data[i+1 : i+5] {
					if !isDigit(h) && !('a' <= h && h <= 'f') && !('A' <= h && h <= 'F') {
						return false
					}
				}
				i += 4
			default:
				return false
			}
		}
	}
	return false
}
