package service

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzJobSpec drives the submission boundary with arbitrary bodies: decode
// as POST /api/v1/jobs does, then normalize and validate. For every body
// that decodes, normalized must be idempotent, buildRunner must accept
// the spec exactly when it accepts the spec's normalized form — the
// dedupe key is derived from the normalized spec, so a spec and its
// normalized form must be the same job in every respect — and, for a
// valid spec, changing a field its run ignores must leave the dedupe key
// unchanged.
// Neither function may panic. The seed corpus is committed under testdata/fuzz/FuzzJobSpec.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		norm := spec.normalized()
		if again := norm.normalized(); !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalized is not idempotent:\n once  %+v\n twice %+v", norm, again)
		}
		_, errSpec := buildRunner(spec)
		_, errNorm := buildRunner(norm)
		if (errSpec == nil) != (errNorm == nil) {
			t.Fatalf("buildRunner disagrees on %s: spec err %v, normalized err %v", body, errSpec, errNorm)
		}
		if errSpec != nil {
			return
		}
		key := dedupeKey(spec)
		for _, v := range inertVariants(spec) {
			if got := dedupeKey(v); got != key {
				t.Fatalf("inert change to %s moved the dedupe key:\n %s\n %s", body, key, got)
			}
		}
	})
}

// inertVariants returns copies of spec that differ from it only in fields
// core ignores for this spec: another negative max_drop (every negative
// budget is unlimited), another noise_seed when no noise model draws, and
// use_lazy_solver.
func inertVariants(spec JobSpec) []JobSpec {
	var out []JobSpec
	if spec.MaxDrop != nil && *spec.MaxDrop < 0 {
		other := -1
		if *spec.MaxDrop == -1 {
			other = -5
		}
		v := spec
		v.MaxDrop = &other
		out = append(out, v)
	}
	if !(spec.NoiseFP > 0 || spec.NoiseFN > 0) {
		v := spec
		v.NoiseSeed++
		out = append(out, v)
	}
	v := spec
	v.LazySolver = !spec.LazySolver
	return append(out, v)
}
