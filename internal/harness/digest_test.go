package harness

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite the entries of testdata/soak_digests.txt that this run reaches")

const soakDigestFile = "testdata/soak_digests.txt"

// soakDigestHeader names where the table came from. The reproducibility
// tests wrote it with -update (once with -short, once without) on the
// commit below, the parent of the change that moved the four soaks onto
// one kit, and were re-run there against it.
const soakDigestHeader = `# soak run, then the SHA-256 of its deterministic outputs (checkSoakDigest)
# generated by the reproducibility tests with -update on commit
# b629a4ad07a67020614fb840f69c5e391dda4c14 and re-verified there
`

var soakDigestMu sync.Mutex

// runMode names the -short setting a soak's configuration depends on.
func runMode() string {
	if testing.Short() {
		return "short"
	}
	return "full"
}

// checkSoakDigest holds a soak's deterministic outputs to the digest the
// table stores under name. The parts are rendered with %+v, one per line
// (fmt sorts map keys), so a digest moves only when an output does; on a
// mismatch the rendering is logged for diagnosis.
func checkSoakDigest(t *testing.T, name string, parts ...any) {
	t.Helper()
	var sb strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&sb, "%+v\n", p)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))

	soakDigestMu.Lock()
	defer soakDigestMu.Unlock()
	table, err := readSoakDigests()
	if err != nil && !(*updateDigests && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *updateDigests {
		table[name] = got
		if err := writeSoakDigests(table); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := table[name]
	if !ok {
		t.Fatalf("%s has no digest for %q", soakDigestFile, name)
	}
	if got != want {
		t.Errorf("%s: outputs digest %s, parent had %s; outputs:\n%s", name, got, want, sb.String())
	}
}

func readSoakDigests() (map[string]string, error) {
	table := map[string]string{}
	f, err := os.Open(soakDigestFile)
	if err != nil {
		return table, err
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", soakDigestFile, line)
		}
		table[line[:i]] = line[i+1:]
	}
	return table, nil
}

func writeSoakDigests(table map[string]string) error {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(soakDigestHeader)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s %s\n", name, table[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(soakDigestFile, []byte(sb.String()), 0o644)
}
