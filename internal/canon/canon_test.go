package canon

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

type golden struct {
	Name    string         `json:"name"`
	Seed    uint64         `json:"seed"`
	Trials  int            `json:"trials"`
	Quick   bool           `json:"quick"`
	Ratio   float64        `json:"ratio"`
	Tags    []string       `json:"tags,omitempty"`
	Extra   map[string]int `json:"extra"`
	Skipped string         `json:"-"`
	Child   *golden        `json:"child"`
}

// TestGoldenEncoding pins the canonical encoding byte-for-byte. Job keys
// are SHA-256 hashes of this encoding, so ANY diff here is a
// compatibility break: stored results and cached job keys across the
// fleet are invalidated. Do not update the expected strings casually.
func TestGoldenEncoding(t *testing.T) {
	v := golden{
		Name:    "torus \"demo\"\n",
		Seed:    18446744073709551615,
		Trials:  5,
		Ratio:   0.1,
		Extra:   map[string]int{"b": 2, "a": 1, "c": 3},
		Skipped: "never",
		Child:   &golden{Name: "child", Tags: []string{"x"}},
	}
	const want = `{"name":"torus \"demo\"\n","seed":18446744073709551615,"trials":5,` +
		`"quick":false,"ratio":0.1,"tags":[],"extra":{"a":1,"b":2,"c":3},` +
		`"child":{"name":"child","seed":0,"trials":0,"quick":false,"ratio":0,` +
		`"tags":["x"],"extra":{},"child":null}}`
	got, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("canonical encoding drifted:\n got %s\nwant %s", got, want)
	}

	const wantHash = "aae401afa08bfca54bd9a8b7e5e0458f30753e5d6868dfe01d79eda0fc874037"
	h, err := Hash(v)
	if err != nil {
		t.Fatal(err)
	}
	if h != wantHash {
		t.Errorf("canonical hash drifted: got %s want %s", h, wantHash)
	}
}

// TestHashIgnoresMapOrderAndPointers: semantically equal values hash
// equal regardless of map insertion order.
func TestHashStability(t *testing.T) {
	a := map[string]int{"x": 1, "y": 2, "z": 3}
	b := map[string]int{"z": 3, "x": 1, "y": 2}
	ha, err := Hash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Hash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("equal maps hash differently: %s vs %s", ha, hb)
	}
	if hc, _ := Hash(map[string]int{"x": 1, "y": 2, "z": 4}); hc == ha {
		t.Error("different maps hash equal")
	}
}

// TestExplicitDefaults: zero values are encoded, so a request that spells
// out a default hashes identically to one that omits it (after the caller
// decodes both into the same struct).
func TestExplicitDefaults(t *testing.T) {
	var zero golden
	got, err := Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(got), "omitempty") {
		t.Fatal("tag leaked")
	}
	for _, field := range []string{`"name"`, `"seed"`, `"trials"`, `"quick"`, `"ratio"`, `"tags"`, `"extra"`, `"child"`} {
		if !strings.Contains(string(got), field) {
			t.Errorf("zero value omitted field %s: %s", field, got)
		}
	}
	if strings.Contains(string(got), `"Skipped"`) || strings.Contains(string(got), "never") {
		t.Errorf("json:\"-\" field encoded: %s", got)
	}
}

// TestRoundTripsAsJSON: canonical output must be valid JSON that decodes
// to the same value.
func TestRoundTripsAsJSON(t *testing.T) {
	v := golden{Name: "rt", Seed: 7, Ratio: 1.2345678901234567, Extra: map[string]int{"k": 9}}
	got, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back golden
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("canonical output is not valid JSON: %v\n%s", err, got)
	}
	if back.Name != v.Name || back.Seed != v.Seed || back.Ratio != v.Ratio || back.Extra["k"] != 9 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

// TestMarshalIndent: the pretty form differs from the compact form only
// in whitespace, and matches encoding/json's layout conventions closely
// enough for downstream tools (two-space indent, one space after colons).
func TestMarshalIndent(t *testing.T) {
	v := map[string][]int{"rows": {1, 2}}
	got, err := MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"rows\": [\n    1,\n    2\n  ]\n}"
	if string(got) != want {
		t.Errorf("indented form:\n%s\nwant:\n%s", got, want)
	}
	compact, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := json.Compact(&b, got); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(compact) {
		t.Errorf("pretty and compact forms disagree beyond whitespace:\n%s\n%s", b.String(), compact)
	}
}

// TestRawMessagePassthrough: json.RawMessage embeds verbatim.
func TestRawMessagePassthrough(t *testing.T) {
	v := struct {
		Table json.RawMessage `json:"table"`
		Empty json.RawMessage `json:"empty"`
	}{Table: json.RawMessage(`{"id":"E1"}`)}
	got, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"table":{"id":"E1"},"empty":null}` {
		t.Errorf("raw message handling: %s", got)
	}
}

// TestFloatErrors: NaN and infinities must fail loudly rather than
// silently corrupting a hash.
func TestFloatErrors(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Marshal(f); err == nil {
			t.Errorf("Marshal(%v) succeeded, want error", f)
		}
	}
}

// TestFloatShortest: floats use the shortest round-tripping form.
func TestFloatShortest(t *testing.T) {
	cases := map[float64]string{
		0.1:  "0.1",
		2:    "2",
		-1.5: "-1.5",
		1e21: "1e+21",
	}
	for f, want := range cases {
		got, err := Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("Marshal(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestByteSlices encode as base64 like encoding/json, so existing
// decoders keep working.
func TestByteSlices(t *testing.T) {
	got, err := Marshal([]byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `"aGk="` {
		t.Errorf("[]byte = %s", got)
	}
}

// TestRawMessageCompactedAndValidated: the compact encoding compacts a
// RawMessage, so it is always one line, without HTML-escaping it; the
// pretty encoding keeps it as given. Invalid JSON fails in both.
func TestRawMessageCompactedAndValidated(t *testing.T) {
	v := struct {
		Table json.RawMessage `json:"table"`
	}{Table: json.RawMessage("{\n  \"note\": \"depth >= t\",\n  \"cols\": [ \"T&F\", \"a<b\" ]\n}\n")}
	got, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"table":{"note":"depth >= t","cols":["T&F","a<b"]}}`; string(got) != want {
		t.Errorf("compact form:\n got %s\nwant %s", got, want)
	}
	pretty, err := MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"table\": " + string(v.Table) + "\n}"; string(pretty) != want {
		t.Errorf("pretty form:\n got %q\nwant %q", pretty, want)
	}
	v.Table = json.RawMessage(`{"a":`)
	if _, err := Marshal(v); err == nil {
		t.Error("Marshal accepted an invalid RawMessage")
	}
	if _, err := MarshalIndent(v, "", "  "); err == nil {
		t.Error("MarshalIndent accepted an invalid RawMessage")
	}
}

// TestAppendString pins the string escaper the store also writes its
// keys with: quote, backslash and control characters are escaped,
// invalid UTF-8 is replaced, and nothing else is touched.
func TestAppendString(t *testing.T) {
	cases := map[string]string{
		"plain":          `"plain"`,
		`q"b\`:           `"q\"b\\"`,
		"\n\r\t\x00\x1f": `"\n\r\t\u0000\u001f"`,
		"<>&\x7f":        "\"<>&\x7f\"",
		"\u2028\u2029é世": "\"\u2028\u2029é世\"",
		"bad\xffutf8":    "\"bad\uFFFDutf8\"",
	}
	for in, want := range cases {
		got := AppendString([]byte("x"), in)
		if string(got) != "x"+want {
			t.Errorf("AppendString(%q) = %q, want %q", in, got[1:], want)
		}
		var back string
		if err := json.Unmarshal(got[1:], &back); err != nil || (utf8.ValidString(in) && back != in) {
			t.Errorf("AppendString(%q) does not decode back: %q, %v", in, back, err)
		}
	}
}

// TestUntaggedEmbeddedStruct: flattening an untagged embedded struct is
// ambiguous, so every value of such a type fails; a tag nests it.
func TestUntaggedEmbeddedStruct(t *testing.T) {
	type Inner struct{ A int }
	type flat struct {
		B int
		Inner
	}
	type nested struct {
		Inner `json:"inner"`
	}
	for i := 0; i < 2; i++ { // the second pass reads the cached plan
		if _, err := Marshal(flat{}); err == nil || !strings.Contains(err.Error(), "untagged embedded struct Inner") {
			t.Errorf("untagged embedded struct: err %v", err)
		}
		got, err := Marshal(nested{Inner{A: 1}})
		if err != nil || string(got) != `{"inner":{"A":1}}` {
			t.Errorf("tagged embedded struct: %s, %v", got, err)
		}
	}
}

// TestPlansConcurrent: goroutines encoding values of a type nobody has
// encoded yet agree byte for byte; under -race this pins the plan
// cache's concurrency.
func TestPlansConcurrent(t *testing.T) {
	type row struct {
		Band int    `json:"band"`
		Name string `json:"name,omitempty"`
		Skip int    `json:"-"`
		Open bool
	}
	v := []row{{Band: 1, Name: "a"}, {Band: 2, Open: true}}
	const want = `[{"band":1,"name":"a","Open":false},{"band":2,"name":"","Open":true}]`
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Marshal(v)
			if err != nil || string(got) != want {
				t.Errorf("concurrent Marshal = %s, %v; want %s", got, err, want)
			}
		}()
	}
	wg.Wait()
}
