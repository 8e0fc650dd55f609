package canon

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// decoded has a field of every kind Unmarshal's one pass takes.
type decoded struct {
	Name   string           `json:"name"`
	OK     bool             `json:"ok"`
	Int    int              `json:"int"`
	I8     int8             `json:"i8"`
	U16    uint16           `json:"u16"`
	U64    uint64           `json:"u64"`
	F64    float64          `json:"f64"`
	F32    float32          `json:"f32"`
	Ints   []int            `json:"ints"`
	Counts []uint64         `json:"counts,omitempty"`
	Flags  []bool           `json:"flags"`
	Tags   []string         `json:"tags"`
	Rows   []decodedRow     `json:"rows"`
	Ptrs   []*decodedRow    `json:"ptrs"`
	Grid   [][]float64      `json:"grid"`
	Inner  decodedRow       `json:"inner"`
	Child  *decoded         `json:"child"`
	Raw    json.RawMessage  `json:"raw"`
	RawPtr *json.RawMessage `json:"raw_ptr"`
	Empty  struct{}         `json:"empty"`
	Plain  int
	Skip   string `json:"-"`
	hidden int
}

type decodedRow struct {
	Round int     `json:"round"`
	Ratio float64 `json:"ratio"`
	Note  string  `json:"note"`
}

// decodeSamples are values whose canonical encodings the one pass takes.
func decodeSamples() []decoded {
	raw := json.RawMessage(`{"id":"E1","rows":[[1.5,-2e-9,"a\"bé"],[]],"ok":[true,false,null]}`)
	return []decoded{
		{},
		{
			Name: "torus \"demo\"\n\té\u2028<&>\x00", OK: true, Int: -42, I8: -128, U16: 65535, U64: math.MaxUint64,
			F64: 0.1, F32: 1.5, Ints: []int{math.MinInt64, 0, math.MaxInt64}, Counts: []uint64{7, 0, 9},
			Flags: []bool{true, false}, Tags: []string{"a", "", "b c", "bad\xffutf8", `\/`},
			Rows:  []decodedRow{{1, 2.5, "x"}, {2, -1e-300, "y"}},
			Ptrs:  []*decodedRow{nil, {Round: 3}},
			Grid:  [][]float64{{1e21, -0.0}, {}},
			Inner: decodedRow{Round: 9, Ratio: 5e-324, Note: "inner"},
			Child: &decoded{Name: "child", Raw: json.RawMessage(`[1,{"k":null}]`)},
			Raw:   raw, RawPtr: &raw, Plain: 3, Skip: "never", hidden: 4,
		},
	}
}

// onePass reports whether Unmarshal's one pass takes data into v
// without falling back.
func onePass(data []byte, v any) bool {
	rv := reflect.ValueOf(v)
	d := decoder{data: data}
	return decodable(rv.Type().Elem()) && d.value(rv.Elem()) && d.pos == len(data)
}

// matchesJSON fails t unless Unmarshal and json.Unmarshal give data the
// same value and the same error.
func matchesJSON[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	gotErr, wantErr := Unmarshal(data, &got), json.Unmarshal(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Unmarshal(%q): error %v, json.Unmarshal %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Unmarshal(%q) = %+v, json.Unmarshal %+v", data, got, want)
	}
}

// TestUnmarshalCanonical: every canonical encoding decodes in the one
// pass to what json.Unmarshal decodes, and re-encodes to the same bytes;
// its indented form takes the fallback to the same value.
func TestUnmarshalCanonical(t *testing.T) {
	for _, v := range decodeSamples() {
		b, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back decoded
		if !onePass(b, &back) {
			t.Errorf("one pass refused a canonical encoding: %s", b)
		}
		matchesJSON[decoded](t, b)
		if again, err := Marshal(back); err != nil || string(again) != string(b) {
			t.Errorf("re-encoding changed the bytes:\n got %s\nwant %s (%v)", again, b, err)
		}
		pretty, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if onePass(pretty, new(decoded)) {
			t.Errorf("one pass took an indented encoding: %s", pretty)
		}
		matchesJSON[decoded](t, pretty)
	}
}

// TestUnmarshalNullsAndEmpties: null decodes as nil into pointers and
// slices, [] as an empty non-nil slice, and a json.RawMessage keeps a
// literal null, all in the one pass.
func TestUnmarshalNullsAndEmpties(t *testing.T) {
	b, err := Marshal(decoded{})
	if err != nil {
		t.Fatal(err)
	}
	var v decoded
	if !onePass(b, &v) {
		t.Fatalf("one pass refused %s", b)
	}
	if v.Ints == nil || len(v.Ints) != 0 || v.Rows == nil || v.Child != nil || v.RawPtr != nil || string(v.Raw) != "null" {
		t.Errorf("zero value decoded as %+v", v)
	}
	in := strings.Replace(string(b), `"ints":[]`, `"ints":null`, 1)
	var null decoded
	if !onePass([]byte(in), &null) || null.Ints != nil {
		t.Errorf("null slice not taken as nil: %#v", null.Ints)
	}
	matchesJSON[decoded](t, []byte(in))
	for _, top := range []string{`null`, `[]`, `[null,"x"]`} {
		matchesJSON[json.RawMessage](t, []byte(top))
		matchesJSON[*decodedRow](t, []byte(top))
		matchesJSON[[]*decodedRow](t, []byte(top))
		matchesJSON[[]json.RawMessage](t, []byte(top))
	}
}

// TestUnmarshalFallsBack: input canon would not write, valid or not,
// decodes as json.Unmarshal decodes it, with its error, and so does a
// string the pass hands to encoding/json.
func TestUnmarshalFallsBack(t *testing.T) {
	for _, in := range []string{
		`{"round":1,"ratio":2,"note":"x"}`,                // canonical: the control
		`{"ratio":2,"round":1,"note":"x"}`,                // another key order
		`{"round":1,"note":"x"}`,                          // a missing key
		`{"round":1,"ratio":2,"note":"x","extra":[1]}`,    // an unknown key
		`{"ROUND":1,"ratio":2,"note":"x"}`,                // json folds key case
		`{"round":1,"round":2,"ratio":2,"note":"x"}`,      // a repeated key
		`{"round":1,"ratio":2,"note":"x\n"}`,              // an escape
		`{"round":1,"ratio":2,"note":"\u00e9"}`,           // a unicode escape
		"{\"round\":1,\"ratio\":2,\"note\":\"\xc3\xa9\"}", // non-ASCII
		"{\"round\":1,\"ratio\":2,\"note\":\"\xff\"}",     // invalid UTF-8
		"{\"round\":1,\"ratio\":2,\"note\":\"\t\"}",       // a control byte
		`{"round":1e2,"ratio":2,"note":"x"}`,              // an exponent in an int
		`{"round":1.0,"ratio":2,"note":"x"}`,              // a fraction in an int
		`{"round":-0,"ratio":-0,"note":"x"}`,              // negative zeros
		`{"round":01,"ratio":2,"note":"x"}`,               // a leading zero
		`{"round":9223372036854775808,"ratio":2,"note":"x"}`,
		`{"round":-9223372036854775808,"ratio":1e400,"note":"x"}`,
		`{"round":null,"ratio":2,"note":null}`,
		`{"round":"1","ratio":2,"note":"x"}`,
		`{"round":true,"ratio":2,"note":"x"}`,
		`{"round":1,"ratio":.5,"note":"x"}`,
		`{"round":1,"ratio":2.,"note":"x"}`,
		`{"round":1,"ratio":2e,"note":"x"}`,
		`{"round":1,"ratio":0x10,"note":"x"}`,
		`{"round":1,"ratio":Infinity,"note":"x"}`,
		`{"round":1,"ratio":2,"note":"x"} `,
		`{"round":1,"ratio":2,"note":"x"}{}`,
		` {"round":1,"ratio":2,"note":"x"}`,
		`{"round":1,"ratio":2,"note":"x"`,
		`null`,
		`[]`,
		``,
	} {
		matchesJSON[decodedRow](t, []byte(in))
	}
	for _, in := range []string{`128`, `-129`, `-0`, `1e1`} {
		matchesJSON[int8](t, []byte(in))
	}
	for _, in := range []string{`65536`, `-1`, `-0`, `18446744073709551616`} {
		matchesJSON[uint16](t, []byte(in))
		matchesJSON[uint64](t, []byte(in))
	}
	for _, in := range []string{`3.5e38`, `1e-46`, `-0`, `1E+2`} {
		matchesJSON[float32](t, []byte(in))
	}
	for _, in := range []string{`[true,nul]`, `[1,,2]`, `[1 ,2]`, `[1,2`, `[1,2]]`, `[,]`} {
		matchesJSON[[]bool](t, []byte(in))
		matchesJSON[[]int](t, []byte(in))
	}
	matchesJSON[[]*decodedRow](t, []byte(`[null,{"round":1,"ratio":0,"note":""}]`))
}

// TestUnmarshalRawMessage: a json.RawMessage keeps any compact JSON value
// in the one pass, escapes and any byte from 0x20 up included, and
// anything else decodes as json.Unmarshal decodes it.
func TestUnmarshalRawMessage(t *testing.T) {
	for _, c := range []struct {
		in   string
		fast bool
	}{
		{`{"a":[1,-2.5e+3,{"b":"\ud800"}],"":{}}`, true},
		{"\"q\\\"\\/\\b\\f\\n\\r\\t\\u00aF\x7f\xff\"", true},
		{`[true,false,null,0,-0,1E-2]`, true},
		{`{"a" :1}`, false},
		{`{"a":1,}`, false},
		{`[1,]`, false},
		{`"\x"`, false},
		{`"\u12"`, false},
		{`"\u12G4"`, false},
		{"\"\t\"", false},
		{`tru`, false},
		{`-`, false},
		{`{"a":1}x`, false},
		{`{1:2}`, false},
	} {
		var raw json.RawMessage
		if got := onePass([]byte(c.in), &raw); got != c.fast {
			t.Errorf("one pass of %q: %v, want %v", c.in, got, c.fast)
		}
		matchesJSON[json.RawMessage](t, []byte(c.in))
	}
}

// TestUnmarshalDepth: nesting past maxDepth takes the fallback, and
// encoding/json's own limit decides.
func TestUnmarshalDepth(t *testing.T) {
	for _, n := range []int{maxDepth, maxDepth + 1, 10001} {
		in := []byte(strings.Repeat("[", n) + strings.Repeat("]", n))
		var raw json.RawMessage
		if got, want := onePass(in, &raw), n <= maxDepth; got != want {
			t.Errorf("depth %d: one pass %v, want %v", n, got, want)
		}
		matchesJSON[json.RawMessage](t, in)
	}
}

type (
	withMap       struct{ M map[string]int }
	withAny       struct{ A any }
	withNumber    struct{ N json.Number }
	withTime      struct{ T time.Time }
	withArray     struct{ A [2]int }
	withBytes     struct{ B []byte }
	withStringOpt struct {
		N int `json:"n,string"`
	}
	withDupName struct {
		X int
		Y int `json:"X"`
	}
	withOddName struct {
		A int `json:"a b"`
	}
	embedded   struct{ A int }
	withTagged struct {
		embedded `json:"e"`
	}
	recursive struct {
		Next *recursive `json:"next"`
		N    int        `json:"n"`
	}
)

// TestUnmarshalTakes: the one pass takes only types whose every value
// encoding/json reads as canon writes it; any other goes straight to
// json.Unmarshal.
func TestUnmarshalTakes(t *testing.T) {
	for _, c := range []struct {
		v    any
		want bool
	}{
		{decoded{}, true},
		{recursive{}, true},
		{[]*recursive{}, true},
		{json.RawMessage{}, true},
		{withMap{}, false},
		{withAny{}, false},
		{withNumber{}, false},
		{withTime{}, false},
		{withArray{}, false},
		{withBytes{}, false},
		{withStringOpt{}, false},
		{withDupName{}, false},
		{withOddName{}, false},
		{withTagged{}, false},
		{[]withMap{}, false},
		{&withAny{}, false},
	} {
		if got := decodable(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("decodable(%T) = %v, want %v", c.v, got, c.want)
		}
	}
	matchesJSON[recursive](t, []byte(`{"next":{"next":null,"n":2},"n":1}`))
	matchesJSON[withStringOpt](t, []byte(`{"n":"5"}`))
	matchesJSON[withDupName](t, []byte(`{"X":1,"X":2}`))
	matchesJSON[withOddName](t, []byte(`{"a b":1}`))
	matchesJSON[withNumber](t, []byte(`{"N":"x"}`))
}

// TestUnmarshalConcurrent: goroutines decoding a type nobody has decoded
// yet agree with json.Unmarshal; under -race this pins the decodable
// cache's concurrency.
func TestUnmarshalConcurrent(t *testing.T) {
	type fresh struct {
		Rows []decodedRow `json:"rows"`
		Name string       `json:"name"`
	}
	data := []byte(`{"rows":[{"round":1,"ratio":0.5,"note":"a"}],"name":"x"}`)
	var want fresh
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got fresh
			if err := Unmarshal(data, &got); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent Unmarshal = %+v, %v; want %+v", got, err, want)
			}
		}()
	}
	wg.Wait()
}

// TestUnmarshalBadTarget: a nil or non-pointer target is json.Unmarshal's
// error.
func TestUnmarshalBadTarget(t *testing.T) {
	var p *decodedRow
	for _, v := range []any{nil, decodedRow{}, p} {
		if got, want := fmt.Sprint(Unmarshal([]byte(`{}`), v)), fmt.Sprint(json.Unmarshal([]byte(`{}`), v)); got != want {
			t.Errorf("Unmarshal into %T: %s, want %s", v, got, want)
		}
	}
}

// FuzzUnmarshal: on any input, Unmarshal and json.Unmarshal give the
// same value and the same error. Seeds are canonical encodings and their
// indented forms.
func FuzzUnmarshal(f *testing.F) {
	for _, v := range decodeSamples() {
		for _, marshal := range []func(any) ([]byte, error){
			Marshal,
			func(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") },
		} {
			b, err := marshal(v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		matchesJSON[decoded](t, data)
	})
}
