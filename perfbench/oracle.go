package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"lusail/internal/eval"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// digest is an order-insensitive fingerprint of a result multiset: each
// row hashes its (variable, term) cells independently of column order,
// the row hash is mixed, and row hashes are summed, so two results agree
// exactly when they hold the same rows the same number of times.
type digest struct {
	Rows int64  `json:"rows"`
	Sum  uint64 `json:"sum"`
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	return h * fnvPrime
}

// varHashes precomputes the per-column part of the cell hash.
func varHashes(vars []string) []uint64 {
	hs := make([]uint64, len(vars))
	for i, v := range vars {
		hs[i] = fnvByte(fnvString(fnvOffset, v), 0)
	}
	return hs
}

// rowHash fingerprints one row; unbound cells do not contribute, matching
// the SPARQL notion of a solution mapping.
func rowHash(vh []uint64, row []rdf.Term) uint64 {
	var sum uint64
	for i, t := range row {
		if i >= len(vh) || t.IsZero() {
			continue
		}
		h := fnvByte(vh[i], byte(t.Kind))
		h = fnvByte(fnvString(h, t.Value), 0)
		h = fnvByte(fnvString(h, t.Lang), 0)
		h = fnvString(h, t.Datatype)
		sum += h
	}
	// splitmix64 finalizer: without it, sums of cell hashes from different
	// rows could cancel across the multiset sum.
	sum ^= sum >> 30
	sum *= 0xbf58476d1ce4e5b9
	sum ^= sum >> 27
	sum *= 0x94d049bb133111eb
	sum ^= sum >> 31
	return sum
}

func (d *digest) add(h uint64) {
	d.Rows++
	d.Sum += h
}

func resultsDigest(res *sparql.Results) (digest, []uint64) {
	vh := varHashes(res.Vars)
	var d digest
	hashes := make([]uint64, len(res.Rows))
	for i, row := range res.Rows {
		hashes[i] = rowHash(vh, row)
		d.add(hashes[i])
	}
	return d, hashes
}

// answer is the centralized answer to one request text.
type answer struct {
	// Digest of the complete answer.
	Digest digest `json:"digest"`
	// Limit is the query's LIMIT when it has one and no ORDER BY; any
	// Limit rows of the complete answer are then correct, so a result is
	// checked by row count plus membership instead of by digest.
	Limit int `json:"limit"`
	// Members counts each row hash of the complete answer (Limit >= 0 only).
	Members map[uint64]int `json:"members,omitempty"`
}

// oracleVersion salts every on-disk cache key; bump it when the format of
// a cached answer or the way answers are computed changes.
const oracleVersion = "perfbench-oracle-v2"

// oracle answers queries by centralized evaluation over the union of the
// federation's data. Answers are memoized per request text; with a cache
// directory they also persist across runs, since one LUBM answer takes
// seconds to compute. A cached answer is keyed by the running executable's
// digest as well as by the data's configuration and the text: the
// executable holds both the data generators and the evaluator, so an answer
// computed by one build of the program is never trusted by another, and a
// change to the generated data or to evaluation semantics cannot leave a
// stale expected answer behind.
type oracle struct {
	union   func() *eval.Evaluator
	dataKey string
	dir     string // "" disables the on-disk cache
	build   string // digest of the running executable

	mu      sync.Mutex
	answers map[string]*answer
}

// newOracle prepares an oracle over the federation's data. The data is
// generated and the union store built on first use, so a run whose answers
// are all cached never builds it.
func newOracle(data func() [][]rdf.Triple, dataKey, cacheDir string) (*oracle, error) {
	build := ""
	if cacheDir != "" {
		var err error
		if build, err = executableDigest(); err != nil {
			return nil, fmt.Errorf("oracle cache: %w", err)
		}
	}
	var once sync.Once
	var ev *eval.Evaluator
	return &oracle{
		union: func() *eval.Evaluator {
			once.Do(func() {
				st := store.New()
				for _, ts := range data() {
					st.AddAll(ts)
				}
				ev = eval.New(st)
			})
			return ev
		},
		dataKey: dataKey,
		dir:     cacheDir,
		build:   build,
		answers: map[string]*answer{},
	}, nil
}

// executableDigest returns the SHA-256 of the running executable.
func executableDigest() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (o *oracle) answer(text string) (*answer, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if a, ok := o.answers[text]; ok {
		return a, nil
	}
	sum := sha256.Sum256([]byte(oracleVersion + "\x00" + o.build + "\x00" + o.dataKey + "\x00" + text))
	path := ""
	if o.dir != "" {
		path = filepath.Join(o.dir, hex.EncodeToString(sum[:16])+".json")
		if a, err := readAnswer(path); err == nil {
			o.answers[text] = a
			return a, nil
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	a, err := o.compute(text)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := writeAnswer(path, a); err != nil {
			return nil, err
		}
	}
	o.answers[text] = a
	return a, nil
}

func (o *oracle) compute(text string) (*answer, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	a := &answer{Limit: -1}
	if q.Limit >= 0 && len(q.OrderBy) == 0 {
		a.Limit = q.Limit
		q.Limit = -1
	}
	res, err := o.union().Query(q)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	d, hashes := resultsDigest(res)
	a.Digest = d
	if a.Limit >= 0 {
		a.Members = map[uint64]int{}
		for _, h := range hashes {
			a.Members[h]++
		}
	}
	return a, nil
}

// check compares one result with the answer; rowHashes is needed only for
// LIMIT answers.
func (a *answer) check(got digest, rowHashes []uint64) error {
	if a.Limit < 0 {
		if got != a.Digest {
			return fmt.Errorf("result digest %d rows/%x, want %d rows/%x", got.Rows, got.Sum, a.Digest.Rows, a.Digest.Sum)
		}
		return nil
	}
	want := min(int64(a.Limit), a.Digest.Rows)
	if got.Rows != want {
		return fmt.Errorf("LIMIT %d result has %d rows, want %d", a.Limit, got.Rows, want)
	}
	seen := map[uint64]int{}
	for _, h := range rowHashes {
		seen[h]++
		if seen[h] > a.Members[h] {
			return fmt.Errorf("LIMIT %d result holds a row that is not in the complete answer", a.Limit)
		}
	}
	return nil
}

func readAnswer(path string) (*answer, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a answer
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("oracle cache %s: %w", path, err)
	}
	return &a, nil
}

// writeAnswer stores an answer atomically, so an interrupted run never
// leaves a partial entry behind.
func writeAnswer(path string, a *answer) error {
	b, err := json.Marshal(a)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
