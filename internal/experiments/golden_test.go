package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current tables")

// goldenScale is the trace scale the paper golden is generated at.
const goldenScale = 0.1

// goldenTables regenerates, in the layout cmd/experiments prints, every
// deterministic paper table: Tables II-IV, grouping, P_error, privacy,
// storage, baselines and the rebase-timeout ablation. The timed capacity
// row is left out.
var goldenTables = []struct {
	name string
	run  func() (string, error)
}{
	{"2", func() (string, error) {
		rows, err := TableII(goldenScale)
		return FormatTableII(rows), err
	}},
	{"3", func() (string, error) {
		return FormatTableIII(tableIIIRows()), nil
	}},
	{"4", func() (string, error) {
		rows, err := TableIV(TableIVLevels)
		return FormatTableIV(rows), err
	}},
	{"grouping", func() (string, error) {
		rows, err := Grouping(goldenScale)
		return FormatGrouping(rows), err
	}},
	{"perror", func() (string, error) { return FormatPError(PErrorTable(2000)), nil }},
	{"privacy", func() (string, error) { return FormatPrivacy(PrivacyTable()), nil }},
	{"storage", func() (string, error) {
		rows, err := StorageComparison(goldenScale)
		return FormatStorage(rows), err
	}},
	{"baselines", func() (string, error) {
		rows, err := Baselines(60)
		return FormatBaselines(rows), err
	}},
	{"rebase", func() (string, error) {
		rows, err := AblateRebaseTimeout(nil, goldenScale)
		return FormatRebase(rows), err
	}},
}

// TestPaperGolden is the "paper tables unchanged" gate: it regenerates the
// tables above at scale 0.1 and diffs them against testdata/paper.golden.
// Refresh the golden with `go test ./internal/experiments -run
// TestPaperGolden -update` when a change is meant to move a table.
func TestPaperGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("replays every site; race instrumentation only adds minutes")
	}
	got := make([]string, len(goldenTables))
	t.Run("tables", func(t *testing.T) {
		for i, tb := range goldenTables {
			t.Run(tb.name, func(t *testing.T) {
				t.Parallel()
				out, err := tb.run()
				if err != nil {
					t.Fatal(err)
				}
				got[i] = fmt.Sprintf("== %s ==\n%s\n", tb.name, strings.TrimRight(out, "\n"))
			})
		}
	})
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "paper.golden")
	joined := strings.Join(got, "\n")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(joined), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if joined == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(joined, "\n")
	for i, diffs := 0, 0; i < max(len(wantLines), len(gotLines)) && diffs < 20; i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("%s:%d differs\n  want: %q\n   got: %q", path, i+1, w, g)
			diffs++
		}
	}
}
