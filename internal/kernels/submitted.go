package kernels

// Submitted wraps a user-submitted restricted-C kernel as a Benchmark,
// so the submission service measures it through exactly the scheduler /
// memo path the built-in figures use. A Submitted is NOT registered in
// the suite: ByName never resolves one, and its name is derived from its
// content ("submit:" + canonical-source hash) instead of a registry
// entry.
//
// Determinism contract: two Submitted values built from sources with the
// same canonical form (lang.Normalize) have the same name, generate the
// same inputs, and produce byte-identical measurements in any process —
// the property the submit memo key relies on.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"

	"ninjagap/internal/lang"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// Submitted is a user-submitted kernel playing the role of a benchmark.
type Submitted struct {
	src  *lang.Kernel
	hash string // hex SHA-256 of the canonical source
	n    int    // fixed problem size: the largest declared record count
}

// FromSource parses and normalizes src and wraps it. The submission
// service normalizes first (for limit checks) and calls FromKernel.
func FromSource(src string) (*Submitted, error) {
	canonical, k, err := lang.Normalize(src)
	if err != nil {
		return nil, err
	}
	return FromKernel(k, canonical), nil
}

// FromKernel wraps an already-normalized kernel. canonical must be k's
// canonical source (lang.Normalize's first result).
func FromKernel(k *lang.Kernel, canonical string) *Submitted {
	sum := sha256.Sum256([]byte(canonical))
	n := 1
	for _, a := range k.Arrays {
		if a.Len > n {
			n = a.Len
		}
	}
	return &Submitted{src: k, hash: hex.EncodeToString(sum[:]), n: n}
}

// Name identifies the kernel by content: "submit:" plus the first 16 hex
// digits of the canonical-source hash. Content addressing keeps memo
// keys and persisted cache entries consistent for the same source in
// every process without any registry.
func (s *Submitted) Name() string { return "submit:" + s.hash[:16] }

// Description says where the kernel came from.
func (s *Submitted) Description() string {
	return fmt.Sprintf("user-submitted kernel %q", s.src.Name)
}

// Domain marks the kernel as outside the paper's suite.
func (s *Submitted) Domain() string { return "User submission" }

// Character is unknown for arbitrary submissions.
func (s *Submitted) Character() string { return "submitted" }

// DefaultN is the declared problem size. Submitted kernels hard-code
// their array lengths in the source, so the size is not scalable: the
// submission service always measures at exactly this N.
func (s *Submitted) DefaultN() int { return s.n }

// TestN equals DefaultN (see there).
func (s *Submitted) TestN() int { return s.n }

// SourceHash returns the full hex SHA-256 of the canonical source.
func (s *Submitted) SourceHash() string { return s.hash }

// Kernel returns the parsed source.
func (s *Submitted) Kernel() *lang.Kernel { return s.src }

// SubmitVersions lists the effort rungs a submitted kernel can be
// measured at: the source-derived ladder only. Algo and Ninja are
// hand-written restructurings no submission carries.
func SubmitVersions() []Version { return []Version{Naive, AutoVec, Pragma} }

// Prepare compiles the submitted source at one level and binds
// deterministically generated inputs. Submitted kernels have no golden
// reference implementation, so Check always passes. Their "submit:<hash>"
// bench names keep their cache keys disjoint from the suite's cells.
func (s *Submitted) Prepare(v Version, m *machine.Machine, n int) (*Instance, error) {
	switch v {
	case Naive, AutoVec, Pragma:
	default:
		return nil, fmt.Errorf("%s: version %s needs hand-written code no submission carries", s.Name(), v)
	}
	arrays := make(map[string]*vm.Array, len(s.src.Arrays))
	for _, a := range s.src.Arrays {
		arr := vm.NewArray(a.Name, a.Elem.Bytes(), a.FlatLen())
		fillSubmitted(arr.Data, s.hash, a.Name)
		arrays[a.Name] = arr
	}
	return compileInstance(s, v, s.src, s.n, arrays, func() error { return nil })
}

// fillSubmitted fills one input array with values in [1, 2), seeded by
// the source hash and the array name: every process — submission daemon,
// CLI, warm restart — generates identical inputs, and the
// range keeps divides, square roots and logs well-conditioned without
// knowing what the kernel computes.
func fillSubmitted(dst []float64, hash, name string) {
	h := fnv.New64a()
	h.Write([]byte(hash))
	h.Write([]byte{'|'})
	h.Write([]byte(name))
	r := rng(int64(h.Sum64()))
	for i := range dst {
		dst[i] = 1 + r.Float64()
	}
}
