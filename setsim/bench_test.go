package setsim_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/setsim"
)

// benchWords generates n pronounceable lower-case words from a skewed
// syllable distribution, so 3-grams repeat the way a name corpus's do.
func benchWords(rng *rand.Rand, n int) []string {
	syllables := strings.Fields("an ber co da el fi gor ha in jo ka lu mi nor os pe qua ri son ta ul ver wi xa yo zen man ton ley ing")
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		for k := 2 + rng.Intn(4); k > 0; k-- {
			sb.WriteString(syllables[int(rng.ExpFloat64()*6)%len(syllables)])
		}
		out[i] = sb.String()
	}
	return out
}

// BenchmarkRecover measures crash recovery: one OpenDurable + Close per
// iteration of a one-shard store holding a checkpoint and a WAL tail —
// 8 000 words and 256 records, and 40 000 words and 1 024 records, the
// size a durable-serve set-up opens. The thresholds stay out of reach,
// so an iteration is the load (manifest, packages with their stored
// round, WAL), the build of the checkpoint's segments from that round —
// no document is tokenized — and the tail replay, with no flush racing
// them; the three are reported as their own metrics, beside the bytes
// of segment package per checkpointed document the store keeps on disk.
func BenchmarkRecover(b *testing.B) {
	for _, size := range []struct{ checkpoint, tail int }{{8000, 256}, {40000, 1024}} {
		b.Run(fmt.Sprintf("%d+%d", size.checkpoint, size.tail), func(b *testing.B) {
			benchRecover(b, size.checkpoint, size.tail)
		})
	}
}

func benchRecover(b *testing.B, checkpoint, tail int) {
	path := filepath.Join(b.TempDir(), "store.sssnap")
	words := benchWords(rand.New(rand.NewSource(1)), checkpoint+tail)
	cfg := setsim.LiveConfig{FlushThreshold: 1 << 30, CheckpointEvery: -1}
	opts := setsim.DurableOptions{Sync: setsim.SyncOff}
	le, _, err := setsim.OpenDurable(path, cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i, w := range words {
		if i == checkpoint {
			if err := le.CheckpointNow(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := le.Insert(w); err != nil {
			b.Fatal(err)
		}
	}
	le.Close()
	packs, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*.sspk"))
	if err != nil || len(packs) == 0 {
		b.Fatalf("no segment packages: %v", err)
	}
	var packBytes int64
	for _, name := range packs {
		fi, err := os.Stat(name)
		if err != nil {
			b.Fatal(err)
		}
		packBytes += fi.Size()
	}

	var load, build, replay float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		le, info, err := setsim.OpenDurable(path, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if info.Live != len(words) || info.WALTail != tail {
			b.Fatalf("recovered %d live documents and a %d-record tail", info.Live, info.WALTail)
		}
		load += info.LoadTime.Seconds()
		build += info.BuildTime.Seconds()
		replay += info.TailTime.Seconds()
		le.Close()
	}
	b.ReportMetric(1e3*load/float64(b.N), "load-ms/op")
	b.ReportMetric(1e3*build/float64(b.N), "build-ms/op")
	b.ReportMetric(1e3*replay/float64(b.N), "tail-ms/op")
	b.ReportMetric(float64(packBytes)/float64(checkpoint), "pack-bytes/doc")
}
