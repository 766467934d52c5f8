package service

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzJobSpec drives the submission boundary with arbitrary bodies: decode
// as POST /api/v1/jobs does, then normalize and validate. For every body
// that decodes, Normalized must be idempotent and buildRunner must accept
// the spec exactly when it accepts the spec's normalized form — the
// dedupe key is derived from the normalized spec, so a spec and its
// normalized form must be the same job in every respect. Neither function
// may panic. The seed corpus is committed under testdata/fuzz/FuzzJobSpec.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		norm := spec.Normalized()
		if again := norm.Normalized(); !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalized is not idempotent:\n once  %+v\n twice %+v", norm, again)
		}
		_, errSpec := buildRunner(spec)
		_, errNorm := buildRunner(norm)
		if (errSpec == nil) != (errNorm == nil) {
			t.Fatalf("buildRunner disagrees on %s: spec err %v, normalized err %v", body, errSpec, errNorm)
		}
	})
}
