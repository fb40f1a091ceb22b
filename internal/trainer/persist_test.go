package trainer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestPipelinePersistenceRoundTrip(t *testing.T) {
	train, test := dataset(t, 60, 20, 21)
	cfg := fastConfig(22)
	cfg.GNN.Epochs = 2
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SavePipeline(p, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Predictions must be bit-identical after the round trip.
	for _, rec := range test {
		a1, _, err := p.ScoreJob(rec.Job)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := loaded.ScoreJob(rec.Job)
		if err != nil {
			t.Fatal(err)
		}
		if a1.A != a2.A || a1.B != a2.B {
			t.Fatalf("NN curve changed: %+v vs %+v", a1, a2)
		}
		if x1, x2 := p.XGB.PredictRuntime(rec.Job, rec.ObservedTokens), loaded.XGB.PredictRuntime(rec.Job, rec.ObservedTokens); x1 != x2 {
			t.Fatalf("XGBoost prediction changed: %v vs %v", x1, x2)
		}
		g1 := p.GNN.PredictTarget(rec.Job)
		g2 := loaded.GNN.PredictTarget(rec.Job)
		if g1.A != g2.A || math.Abs(g1.LogB-g2.LogB) > 1e-12 {
			t.Fatalf("GNN params changed: %+v vs %+v", g1, g2)
		}
	}
	// Scaling survives.
	if loaded.Scaling.A.Mean != p.Scaling.A.Mean || loaded.Scaling.LogB.Std != p.Scaling.LogB.Std {
		t.Fatal("param scaling changed")
	}
}

func TestPipelinePersistenceFile(t *testing.T) {
	train, _ := dataset(t, 40, 0, 23)
	cfg := fastConfig(24)
	cfg.SkipGNN = true
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SavePipelineFile(p, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipelineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.GNN != nil {
		t.Fatal("skipped GNN reappeared")
	}
	if loaded.NN == nil {
		t.Fatal("NN lost")
	}
	if _, err := LoadPipelineFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadPipelineRejectsGarbage(t *testing.T) {
	if _, err := LoadPipeline(strings.NewReader("junk")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage error %v, want ErrBadMagic", err)
	}
	if err := SavePipeline(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("nil pipeline accepted")
	}
	if err := SavePipelineFile(nil, "unused"); err == nil {
		t.Fatal("nil pipeline accepted by file save")
	}
}

// savedPipelineBytes trains a small pipeline once and returns its
// serialized form for the corruption tests.
func savedPipelineBytes(t testing.TB) []byte {
	t.Helper()
	train, _ := dataset(t, 30, 0, 25)
	cfg := fastConfig(26)
	cfg.SkipGNN = true
	cfg.SkipNN = true
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePipeline(p, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadPipelineCorruption pins the typed-error contract: a foreign
// file, an unsupported format version and a truncated or bit-flipped
// payload each fail with a distinct sentinel, and none of them ever
// yields a pipeline value.
func TestLoadPipelineCorruption(t *testing.T) {
	good := savedPipelineBytes(t)

	check := func(t *testing.T, data []byte, want error) {
		t.Helper()
		p, err := LoadPipeline(bytes.NewReader(data))
		if p != nil {
			t.Fatal("corrupt stream produced a pipeline")
		}
		if !errors.Is(err, want) {
			t.Fatalf("error %v, want %v", err, want)
		}
	}

	t.Run("foreign file", func(t *testing.T) {
		check(t, []byte("PK\x03\x04 definitely a zip, not a model"), ErrBadMagic)
	})
	t.Run("empty file", func(t *testing.T) {
		check(t, nil, ErrBadMagic)
	})
	t.Run("future format version", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[8] = 0xff // big-endian version field follows the 8-byte magic
		check(t, data, ErrFormatVersion)
	})
	t.Run("truncated gob stream", func(t *testing.T) {
		check(t, good[:len(good)/2], ErrCorrupt)
	})
	t.Run("truncated before payload", func(t *testing.T) {
		check(t, good[:10], ErrCorrupt)
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[len(data)/2] ^= 0xff
		// A flipped byte either breaks gob framing (ErrCorrupt) or, in
		// the worst case, decodes to a structurally incomplete pipeline;
		// both must surface as ErrCorrupt, never as a usable value.
		check(t, data, ErrCorrupt)
	})
	t.Run("length beyond stream", func(t *testing.T) {
		// Magic and version, a length field claiming 64 MiB, one payload
		// byte: the loader must fail without allocating the claim.
		data := binary.BigEndian.AppendUint64(append([]byte(nil), good[:12]...), 64<<20)
		data = append(data, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		check(t, data, ErrCorrupt)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("a %d-byte stream allocated %d bytes", len(data), alloc)
		}
	})
}

// FuzzLoadPipeline feeds arbitrary bytes to the loader: every input
// yields a pipeline or one of the typed errors, never a panic.
func FuzzLoadPipeline(f *testing.F) {
	good := savedPipelineBytes(f)
	for _, n := range []int{len(good), len(good) - 1, len(good) / 2, 21, 20, 12, 8, 0} {
		f.Add(good[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPipeline(bytes.NewReader(data))
		switch {
		case err == nil && p == nil:
			t.Fatal("no pipeline and no error")
		case err != nil && p != nil:
			t.Fatalf("a pipeline along with error %v", err)
		case err != nil && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrFormatVersion) && !errors.Is(err, ErrCorrupt):
			t.Fatalf("untyped error %v", err)
		}
	})
}

// TestSavePipelineFileAtomic crashes a save halfway (via a full target
// file already in place) and checks the original survives intact: the
// temp-file + rename protocol never truncates the destination, and no
// temp droppings are left behind on success.
func TestSavePipelineFileAtomic(t *testing.T) {
	train, _ := dataset(t, 30, 0, 27)
	cfg := fastConfig(28)
	cfg.SkipGNN = true
	cfg.SkipNN = true
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := SavePipelineFile(p, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the file must be replaced, not appended or
	// truncated mid-write.
	if err := SavePipelineFile(p, path); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("deterministic pipeline serialized differently across saves")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %d entries in %s", len(entries), dir)
	}
	// Saving into a missing directory fails without touching anything.
	if err := SavePipelineFile(p, filepath.Join(dir, "no-such-dir", "m.gob")); err == nil {
		t.Fatal("save into missing directory accepted")
	}
}
