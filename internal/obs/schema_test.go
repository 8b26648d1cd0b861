package obs

import (
	"os"
	"strings"
	"testing"
)

// readRepoFile loads a file relative to this package directory (the test
// working directory), failing the test if it is missing.
func readRepoFile(t *testing.T, rel string) []byte {
	t.Helper()
	blob, err := os.ReadFile(rel)
	if err != nil {
		t.Fatalf("read %s: %v", rel, err)
	}
	return blob
}

const testSchema = `{
  "type": "object",
  "required": ["name", "items"],
  "properties": {
    "name": {"type": "string"},
    "count": {"type": "integer"},
    "ratio": {"type": ["number", "null"]},
    "kind": {"type": "string", "enum": ["a", "b"]},
    "ok": {"type": "boolean", "enum": [true]},
    "items": {
      "type": "array",
      "minItems": 1,
      "items": {"type": "object", "required": ["id"], "properties": {"id": {"type": "integer"}}}
    }
  },
  "additionalProperties": {"type": "boolean"}
}`

func TestValidateJSONSchemaAccepts(t *testing.T) {
	doc := `{"name":"x","count":3,"ratio":null,"kind":"a","ok":true,"items":[{"id":1},{"id":2}],"extra":true}`
	if err := ValidateJSONSchema([]byte(testSchema), []byte(doc)); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
}

func TestValidateJSONSchemaRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"missing required", `{"name":"x"}`, "missing required"},
		{"wrong type", `{"name":5,"items":[{"id":1}]}`, "want type string"},
		{"non-integer", `{"name":"x","count":1.5,"items":[{"id":1}]}`, "want type integer"},
		{"bad union", `{"name":"x","ratio":"nope","items":[{"id":1}]}`, "matches none"},
		{"bad enum", `{"name":"x","kind":"z","items":[{"id":1}]}`, "not in enum"},
		// Acceptance booleans are gated as enum [true]: a false gate fails.
		{"false gate", `{"name":"x","ok":false,"items":[{"id":1}]}`, "$.ok: value false not in enum"},
		{"empty array", `{"name":"x","items":[]}`, "need at least"},
		{"bad item", `{"name":"x","items":[{"id":"s"}]}`, "$.items[0].id"},
		{"bad extra", `{"name":"x","items":[{"id":1}],"extra":"s"}`, "want type boolean"},
		{"root type", `[1]`, "want type object"},
	}
	for _, tc := range cases {
		err := ValidateJSONSchema([]byte(testSchema), []byte(tc.doc))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestValidateJSONSchemaParseErrors(t *testing.T) {
	if err := ValidateJSONSchema([]byte("{"), []byte("{}")); err == nil {
		t.Fatal("broken schema accepted")
	}
	if err := ValidateJSONSchema([]byte("{}"), []byte("{")); err == nil {
		t.Fatal("broken document accepted")
	}
	if err := ValidateJSONSchema([]byte(`"notobj"`), []byte(`{}`)); err == nil {
		t.Fatal("non-object schema node accepted")
	}
}

func TestValidateExportsAgainstCheckedInSchemas(t *testing.T) {
	traceSchema := readRepoFile(t, "../../schema/trace.schema.json")
	blob, err := PerfettoJSON(exportFixture())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSONSchema(traceSchema, blob); err != nil {
		t.Fatalf("trace export violates checked-in schema: %v", err)
	}

	metricsSchema := readRepoFile(t, "../../schema/metrics.schema.json")
	r := NewRegistry()
	r.Counter("mem_stall_seconds").Add(1.5)
	r.Gauge("controller_drift_score").Set(0.2)
	r.Histogram("expertmem_fetch_seconds", SecondsBuckets()).Observe(0.001)
	snap, err := r.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSONSchema(metricsSchema, snap); err != nil {
		t.Fatalf("metrics export violates checked-in schema: %v", err)
	}
}
