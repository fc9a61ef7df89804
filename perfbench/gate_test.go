package main

import (
	"bytes"
	"strings"
	"testing"

	"ninjagap/internal/gap"
)

func TestSuiteReferenceCoversEveryOutput(t *testing.T) {
	ref, err := parseDigests(suiteReference)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range suiteIDs() {
		for _, f := range suiteFormats {
			if _, ok := ref[id+"."+f]; !ok {
				t.Errorf("no reference digest for %s.%s", id, f)
			}
		}
	}
}

// table2 needs no simulation, so it exercises the gate cheaply.
func table2Output(t *testing.T, format string) []byte {
	t.Helper()
	out, err := gap.Dispatch("table2", suiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.Emit(&buf, format); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSuiteGateFailsOnCorruptedReferenceByte(t *testing.T) {
	ref, err := parseDigests(suiteReference)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range suiteFormats {
		key := "table2." + f
		out := table2Output(t, f)
		if err := ref.check(key, out); err != nil {
			t.Fatalf("gate rejects the recorded output: %v", err)
		}

		// Flip one hex digit of the recorded digest.
		line := strings.Index(suiteReference, " "+key+"\n")
		b := []byte(suiteReference)
		if b[line-1] == '0' {
			b[line-1] = '1'
		} else {
			b[line-1] = '0'
		}
		bad, err := parseDigests(string(b))
		if err != nil {
			t.Fatal(err)
		}
		if err := bad.check(key, out); err == nil {
			t.Errorf("%s: gate passes against a corrupted reference", key)
		}

		// And one byte of the output itself.
		out[len(out)/2] ^= 1
		if err := ref.check(key, out); err == nil {
			t.Errorf("%s: gate passes a corrupted output", key)
		}
	}
}

func TestParseDigestsRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{"", "abc table2.text", strings.Repeat("0", 64) + " a b"} {
		if _, err := parseDigests(text); err == nil {
			t.Errorf("parseDigests(%q) accepted a malformed reference", text)
		}
	}
}
