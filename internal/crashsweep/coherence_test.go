package crashsweep

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/vm"
	"repro/ssp"
)

// The oracles run the cache coherence checker around their reads: a cached
// copy that no longer matches memory fails the verification even though
// every value the oracle itself reads (from the cache) is the expected one.
func TestVerifyRunsCoherenceChecker(t *testing.T) {
	for _, b := range ssp.Backends() {
		m := ssp.MustNew(Config(b))
		committed, _ := RunScript(m, MakeScript(1, 6))
		m.Drain()
		if err := Verify(m, committed, nil); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		// The verified lines are now cached clean. Overwrite the data frames
		// behind the caches' back.
		mc := m.Config()
		l := vm.NewLayout(mc.Mem, mc.Layout)
		m.Mem().Poke(l.FramePoolBase, bytes.Repeat([]byte{0xA5}, int(l.FramePoolEnd-l.FramePoolBase)))
		err := Verify(m, committed, nil)
		if err == nil || !strings.Contains(err.Error(), "caches incoherent after recovery") {
			t.Fatalf("%v: Verify over stale cached copies returned %v, want a coherence violation", b, err)
		}
	}
}
