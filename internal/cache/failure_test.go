package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// entryLine renders a valid store line for hand-built fixture files.
func entryLine(t *testing.T, fp, device string, seq int, gflops float64) string {
	t.Helper()
	e := testEntry(t, fp, device, 1, gflops)
	e.Seq = seq
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tornFixture is a three-entry store file plus the offset of each line's
// newline: cutting the file anywhere models a kill at that byte.
func tornFixture(t *testing.T) (full string, newlines []int) {
	t.Helper()
	for i, fp := range []string{"fp1", "fp2", "fp3"} {
		full += entryLine(t, fp, "titan-xp", i+1, float64(100*(i+1)))
		newlines = append(newlines, len(full))
		full += "\n"
	}
	return full, newlines
}

// reopenAfterCut writes full[:off], opens it, Puts one new entry, and
// reopens: the first open must hold want entries and the second want+1.
func reopenAfterCut(t *testing.T, path, full string, off, want int) {
	t.Helper()
	if err := os.WriteFile(path, []byte(full[:off]), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("offset %d: %v", off, err)
	}
	if s.Len() != want {
		t.Fatalf("offset %d: Len = %d want %d", off, s.Len(), want)
	}
	if _, err := s.Put(testEntry(t, "fp-new", "rtx-3090", 2, 600)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatalf("offset %d: reopen after repair+put: %v", off, err)
	}
	defer re.Close()
	if re.Len() != want+1 {
		t.Fatalf("offset %d: reopened Len = %d want %d", off, re.Len(), want+1)
	}
}

// TestReopenTornInvalidTail cuts the store at every offset that leaves a
// torn, unparseable tail (or none): the tail is dropped, every complete
// line kept, and the next Put appends a clean line.
func TestReopenTornInvalidTail(t *testing.T) {
	full, newlines := tornFixture(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	for off, kept := 0, 0; off <= len(full); off++ {
		if kept < len(newlines) && off == newlines[kept] {
			continue // valid JSON missing only its newline: the next test
		}
		if off > 0 && full[off-1] == '\n' {
			kept++
		}
		reopenAfterCut(t, path, full, off, kept)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		clean := full[:strings.LastIndex(full[:off], "\n")+1]
		rest, ok := strings.CutPrefix(string(data), clean)
		if !ok || strings.Count(rest, "\n") != 1 || !strings.HasSuffix(rest, "\n") {
			t.Fatalf("offset %d: file not repaired cleanly:\n%s", off, data)
		}
	}
}

// TestReopenUnterminatedValidTail cuts the store just before each line's
// newline — complete JSON whose newline never reached disk. The entry is
// good and must be kept, and reopen terminates it in place.
func TestReopenUnterminatedValidTail(t *testing.T) {
	full, newlines := tornFixture(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	for i, off := range newlines {
		reopenAfterCut(t, path, full, off, i+1)
	}
}

func TestOpenRejectsCorruptEntry(t *testing.T) {
	good := entryLine(t, "fp", "titan-xp", 1, 500)
	cases := map[string]string{
		"garbage line":    good + "\n" + "{not json}" + "\n",
		"missing device":  good + "\n" + `{"seq":2,"fingerprint":"fp","best_config":1,"gflops":5}` + "\n",
		"negative config": good + "\n" + `{"seq":2,"fingerprint":"fp","device":"titan-xp","best_config":-4,"gflops":5}` + "\n",
		"NaN gflops":      good + "\n" + `{"seq":2,"fingerprint":"fp","device":"titan-xp","best_config":1,"gflops":"x"}` + "\n",
	}
	for name, content := range cases {
		path := filepath.Join(t.TempDir(), "cache.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Errorf("%s: Open accepted a corrupt store", name)
		}
		if _, err := OpenReadOnly(path); err == nil {
			t.Errorf("%s: OpenReadOnly accepted a corrupt store", name)
		}
	}
}

func TestConcurrentPut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s := openStore(t, path)
	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fp := fmt.Sprintf("fp-%d-%d", w, i)
				if _, err := s.Put(testEntry(t, fp, "titan-xp", int64(i), 100+float64(i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != writers*perWriter {
		t.Fatalf("Len = %d want %d", s.Len(), writers*perWriter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Every concurrent append must survive a reopen intact.
	re := openStore(t, path)
	if re.Len() != writers*perWriter {
		t.Fatalf("reopened Len = %d want %d", re.Len(), writers*perWriter)
	}
}

func TestReadOnlyNeverWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s := openStore(t, path)
	if _, err := s.Put(testEntry(t, "fp", "titan-xp", 1, 500)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.ReadOnly() {
		t.Fatal("ReadOnly() = false")
	}
	// Lookups work; an improving Put is silently skipped, never written.
	if _, ok := ro.Get("fp", "titan-xp"); !ok {
		t.Fatal("readonly Get missed")
	}
	stored, err := ro.Put(testEntry(t, "fp", "titan-xp", 2, 9999))
	if err != nil || stored {
		t.Fatalf("readonly Put = (%v, %v), want (false, nil)", stored, err)
	}
	if got, _ := ro.Get("fp", "titan-xp"); got.GFLOPS != 500 {
		t.Fatalf("readonly Put mutated the index: %+v", got)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("readonly store modified the file:\nbefore: %s\nafter: %s", before, after)
	}
	if st := ro.Stats(); st.PutSkips != 1 || st.Puts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
