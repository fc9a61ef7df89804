package gap

import (
	"reflect"
	"testing"
)

// FuzzDecodeMeasurement checks the persisted-cell decoder, which reads
// whatever a cache directory holds. It must never panic. An entry it
// accepts must carry a Result, must be refused under any other key, and
// must encode again to bytes that decode to a deeply equal Measurement.
// The seed corpus in testdata/fuzz/FuzzDecodeMeasurement (naive, autovec
// and ninja entries as the disk layer writes them, truncations of the
// naive one, a wrong schema and a wrong key) runs as an ordinary test.
func FuzzDecodeMeasurement(f *testing.F) {
	f.Fuzz(func(t *testing.T, entry []byte, key string) {
		m, err := decodeMeasurement(entry, key)
		if err != nil {
			return
		}
		if m.Res == nil || m.Inst == nil {
			t.Fatalf("accepted an entry without a result or instance: %+v", m)
		}
		if _, err := decodeMeasurement(entry, key+"|"); err == nil {
			t.Fatalf("the entry for key %q was accepted under another key", key)
		}
		enc, err := encodeMeasurement(key, m)
		if err != nil {
			t.Fatalf("re-encoding an accepted entry: %v", err)
		}
		again, err := decodeMeasurement(enc, key)
		if err != nil {
			t.Fatalf("the re-encoded entry does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("the round trip changed the measurement\n got %+v\nwant %+v", again, m)
		}
	})
}
