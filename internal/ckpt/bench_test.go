package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkSaveLoad times a Save plus a Load of one id in a directory
// already holding files of other ids, as a long-running server's
// models directory does (one file per job).
func BenchmarkSaveLoad(b *testing.B) {
	for _, others := range []int{0, 1000, 4000} {
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			dir := b.TempDir()
			for k := 0; k < others; k++ {
				if err := os.WriteFile(filepath.Join(dir, fileName(fmt.Sprintf("job-%d", k), 1)), nil, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			snap := testSnap(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Save("hot", snap, nil); err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := s.Load("hot"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
