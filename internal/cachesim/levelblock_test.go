package cachesim

import (
	"testing"

	"fbmpk/internal/core"
	"fbmpk/internal/matgen"
	"fbmpk/internal/reorder"
)

// TestLevelBlockedTrafficBeatsFBModel is the CI gate behind the engine
// autotuner's arbitration: on a banded matrix with deep level structure
// the traced level-blocked traffic must undercut the FB pipeline's
// matrix-read model (U streamed 1+floor(k/2) times, L and D ceil(k/2)
// times) once k is deep enough (k >= 4) — the regime where blocking's
// read-A-once behavior beats FBMPK's halved-sweeps behavior. The block
// budget is half the cache, mirroring core.DefaultLevelBlockBytes
// relative to ConfigXeon.
func TestLevelBlockedTrafficBeatsFBModel(t *testing.T) {
	m := matgen.Grid(matgen.GridParams{
		NX: 10000, NY: 1, NZ: 1, DOF: 4, Radius: 1,
		KeepProb: 1, Symmetric: true, Seed: 7,
	})
	lp, err := core.BFSLevels(m)
	if err != nil {
		t.Fatal(err)
	}
	if lp.NumLevels() < 64 {
		t.Fatalf("banded generator produced only %d levels", lp.NumLevels())
	}
	cfg := ScaledConfig(m.MemoryBytes(), 4)
	bp := core.GroupLevels(m, lp, int(cfg.SizeBytes/2))
	pa, err := reorder.Perm(lp.Rows).ApplySym(m)
	if err != nil {
		t.Fatal(err)
	}
	s := LevelBlockSchedule{LevelPtr: lp.LevelPtr, BlockPtr: bp}

	var nnzL, nnzD, nnzU int64
	for i := 0; i < m.Rows; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			switch c := int(m.ColIdx[j]); {
			case c < i:
				nnzL++
			case c == i:
				nnzD++
			default:
				nnzU++
			}
		}
	}
	for _, k := range []int{4, 6, 8} {
		fbModel := 12 * (nnzU + int64((k+1)/2)*(nnzL+nnzD) + int64(k/2)*nnzU)
		c := MustNew(cfg)
		TraceLevelBlockedMPK(c, pa, s, k)
		got := c.Stats().ReadBytes
		if got >= fbModel {
			t.Errorf("k=%d: level-blocked read %d bytes, FB model %d — blocking lost", k, got, fbModel)
		}
		if got < pa.MemoryBytes() {
			t.Errorf("k=%d: level-blocked read %d bytes < matrix %d — undercounting", k, got, pa.MemoryBytes())
		}
	}
}

// TestDefaultLevelBlockBytesMatchesXeon pins core's literal block
// budget (core cannot import cachesim) to the half-LLC convention it
// documents.
func TestDefaultLevelBlockBytesMatchesXeon(t *testing.T) {
	if int64(core.DefaultLevelBlockBytes) != ConfigXeon.SizeBytes/2 {
		t.Errorf("core.DefaultLevelBlockBytes = %d, want ConfigXeon.SizeBytes/2 = %d",
			core.DefaultLevelBlockBytes, ConfigXeon.SizeBytes/2)
	}
}
