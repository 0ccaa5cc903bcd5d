package core_test

import (
	"context"
	"errors"
	"testing"

	"fbmpk/internal/core"
	"fbmpk/internal/registry"
	"fbmpk/internal/sparse"
)

// TestUnknownBackendRejected: an Engine that is none of the four
// constants fails NewPlan with ErrBadEngine instead of building a
// standard plan under a name no other plan shares, and a registry asked
// for one returns that error and caches nothing.
func TestUnknownBackendRejected(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 5)
	for i := 0; i < 3; i++ {
		coo.Add(i, i, 2)
	}
	coo.Add(0, 1, -1)
	coo.Add(1, 0, -1)
	a := coo.ToCSR()
	reg := registry.New(4)
	defer reg.Close()
	for _, e := range []core.Engine{core.Engine(9), core.Engine(-1), core.EngineAuto + 1} {
		if p, err := core.NewPlan(a, core.Options{Engine: e}); !errors.Is(err, core.ErrBadEngine) {
			if p != nil {
				p.Close()
			}
			t.Fatalf("%v: NewPlan err = %v, want ErrBadEngine", e, err)
		}
		if p, err := reg.AcquireCtx(context.Background(), a, core.WithEngine(e)); !errors.Is(err, core.ErrBadEngine) {
			if p != nil {
				reg.Release(p)
			}
			t.Fatalf("%v: AcquireCtx err = %v, want ErrBadEngine", e, err)
		}
	}
	if s := reg.Stats(); s.Entries != 0 || s.Builds != 0 {
		t.Fatalf("the registry cached a plan of an unknown engine: %+v", s)
	}
}
