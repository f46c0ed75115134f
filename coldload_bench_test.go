// Cold-load benchmarks for the SGC2 snapshot format: how fast a
// compressed grid goes from a file on disk to answering its first
// query. V2Mmap is the zero-copy path (payload stays in the page
// cache); V1Copy and V2Copy decode the payload into the heap;
// StoreHit/StoreMiss route the load through the tiered snapshot store
// (cache hit vs full remote fetch + verify + fill).
// `make bench` appends these rows to BENCH_trajectory.jsonl.
package compactsg_test

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"compactsg"
	"compactsg/internal/store"
	"compactsg/internal/workload"
)

const (
	coldDim   = 5
	coldLevel = 10
)

func coldLoadFile(b *testing.B, save func(*compactsg.Grid, io.Writer) error) string {
	b.Helper()
	g, err := compactsg.New(coldDim, coldLevel)
	if err != nil {
		b.Fatal(err)
	}
	g.Compress(workload.Parabola.F)
	path := filepath.Join(b.TempDir(), "cold.sg")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := save(g, f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	return path
}

func benchColdLoad(b *testing.B, path string, wantMode compactsg.LoadMode) {
	x := workload.Points(11, 1, coldDim)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		og, err := compactsg.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if og.Mode != wantMode {
			b.Fatalf("load mode %v, want %v", og.Mode, wantMode)
		}
		if _, err := og.Evaluate(x); err != nil {
			b.Fatal(err)
		}
		if err := og.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColdLoad(b *testing.B) {
	b.Run("V1Copy", func(b *testing.B) {
		path := coldLoadFile(b, (*compactsg.Grid).SaveV1)
		benchColdLoad(b, path, compactsg.LoadCopy)
	})
	b.Run("V2Copy", func(b *testing.B) {
		// The copying v2 decoder, benchmarked directly: what every
		// non-linux or big-endian host pays for the same file.
		path := coldLoadFile(b, (*compactsg.Grid).Save)
		g, err := compactsg.New(coldDim, coldLevel)
		if err != nil {
			b.Fatal(err)
		}
		g.Compress(workload.Parabola.F)
		x := workload.Points(11, 1, coldDim)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			got, err := compactsg.Load(f)
			if err != nil {
				b.Fatal(err)
			}
			f.Close()
			if _, err := got.Evaluate(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("V2Mmap", func(b *testing.B) {
		path := coldLoadFile(b, (*compactsg.Grid).Save)
		benchColdLoad(b, path, compactsg.LoadMmap)
	})
	// The tiered-store routes: what a store-backed cold load adds on
	// top of the raw mmap. StoreHit opens the already-cached object
	// (key lookup + pin + mmap); StoreMiss pays the full fetch →
	// verify → cache fill from a local-filesystem remote each
	// iteration — an upper bound on the cache's benefit, since a real
	// remote adds network latency on top.
	b.Run("StoreHit", func(b *testing.B) {
		path := coldLoadFile(b, (*compactsg.Grid).Save)
		st, key := benchStore(b, path)
		obj, err := st.Get(context.Background(), key) // warm the cache
		if err != nil {
			b.Fatal(err)
		}
		obj.Release()
		x := workload.Points(11, 1, coldDim)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchStoreLoad(b, st, key, x)
		}
	})
	b.Run("StoreMiss", func(b *testing.B) {
		path := coldLoadFile(b, (*compactsg.Grid).Save)
		st, key := benchStore(b, path)
		x := workload.Points(11, 1, coldDim)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := st.Drop(key); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			benchStoreLoad(b, st, key, x)
		}
	})
}

// benchStore builds a store over a filesystem remote seeded with the
// snapshot at path and returns it with the snapshot's content address.
func benchStore(b *testing.B, path string) (*store.Store, string) {
	b.Helper()
	key, err := store.KeyOfFile(path)
	if err != nil {
		b.Fatal(err)
	}
	remoteDir := b.TempDir()
	raw, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(remoteDir, key+".sg"), raw, 0o644); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(store.Config{Dir: b.TempDir(), Remote: &store.FSRemote{Dir: remoteDir}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st, key
}

func benchStoreLoad(b *testing.B, st *store.Store, key string, x []float64) {
	obj, err := st.Get(context.Background(), key)
	if err != nil {
		b.Fatal(err)
	}
	og, err := compactsg.Open(obj.Path())
	obj.Release()
	if err != nil {
		b.Fatal(err)
	}
	if og.Mode != compactsg.LoadMmap {
		b.Fatalf("load mode %v, want mmap", og.Mode)
	}
	if _, err := og.Evaluate(x); err != nil {
		b.Fatal(err)
	}
	if err := og.Close(); err != nil {
		b.Fatal(err)
	}
}
