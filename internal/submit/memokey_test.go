package submit

import (
	"errors"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/lang"
	"ninjagap/internal/machine"
)

// memoKey is memoKeyOf for built machines, each named by its own
// fingerprint: the form the key had when Process built every machine
// before its memo lookup.
func memoKey(b *kernels.Submitted, machines []*machine.Machine, versions []kernels.Version) string {
	ids := make([]machineID, len(machines))
	for i, m := range machines {
		ids[i] = machineID{name: m.Name, fp: m.Fingerprint()}
	}
	return memoKeyOf(b, ids, versions)
}

func testKernel(t *testing.T) *kernels.Submitted {
	t.Helper()
	canonical, k, err := lang.Normalize(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	return kernels.FromKernel(k, canonical)
}

// TestPresetIDsMatchBuiltMachines checks that the key Process derives from
// preset names alone is, byte for byte, the key of the machines those
// names build, for the default list and for an explicit one.
func TestPresetIDsMatchBuiltMachines(t *testing.T) {
	b := testKernel(t)
	versions, err := resolveVersions(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{nil, {"KnightsFerry", "Core2Quad"}} {
		ids, err := presetIDs(names)
		if err != nil {
			t.Fatal(err)
		}
		machines, err := resolveMachines(names)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := memoKeyOf(b, ids, versions), memoKey(b, machines, versions); got != want {
			t.Errorf("machines %v: key from names\n got %s\nwant %s", names, got, want)
		}
	}
	var se *Error
	if _, err := presetIDs([]string{"WestmereX980", "PDP11"}); !errors.As(err, &se) || se.Code != CodeBadRequest {
		t.Errorf("unknown machine: error %v, want %s", err, CodeBadRequest)
	}
}

// TestMemoKeyBuildsNoMachine bounds what a resubmission's memo lookup
// allocates: the identity slice and the key string. Building the five
// presets to name them in the key, as the lookup once did, costs eleven
// allocations more.
func TestMemoKeyBuildsNoMachine(t *testing.T) {
	b := testKernel(t)
	versions, err := resolveVersions(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ids, err := presetIDs(nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = memoKeyOf(b, ids, versions)
	})
	if allocs > 2 {
		t.Errorf("memo key derivation allocates %.0f times, want at most 2", allocs)
	}
}
