// The in-memory cache layer. A resident process (internal/serve) answers
// most lookups from RAM: entries live in an LRU-bounded map in front of the
// optional disk cache, so a warm daemon pays neither JSON decoding nor
// filesystem reads for repeated requests, while still landing every write
// on disk (when backed) so a restart comes back warm.

package cache

// Store is the lookup surface the batch engine caches through: the scan
// layer (content hash → identifier-word set), the result layer
// ((patch+options key, content hash) → outcome), and the function-granular
// result layer ((patch+options key, segment hash) → per-segment outcome).
// *Cache implements it on disk; *Memory implements it in RAM with optional
// disk write-through.
type Store interface {
	Words(fileHash string) (map[string]bool, bool)
	PutWords(fileHash string, words map[string]bool) error
	Result(key, fileHash string) (*Record, bool)
	PutResult(key, fileHash string, r *Record) error
	FuncResult(key, fnHash string) (*FuncRecord, bool)
	PutFuncResult(key, fnHash string, r *FuncRecord) error
}

var (
	_ Store = (*Cache)(nil)
	_ Store = (*Memory)(nil)
)

// Memory is an LRU-bounded in-memory Store, optionally layered over a disk
// Store: reads try RAM first and fall through to the backing store (priming
// RAM on a hit); writes land in RAM and write through. It is safe for
// concurrent use. Entries are treated as immutable after insertion — the
// engine never mutates a word set or Record it got from a Store — so hits
// return the stored value without copying.
type Memory struct {
	disk Store // nil = RAM only
	lru  *LRU[*memEntry]
}

// memEntry is one resident cache entry; exactly one of words/rec/frec is
// set. Function-granular records get their own field (and their own key
// prefix) so a segment entry can never be mistaken for — or overwrite — the
// file-level manifest it was spliced into.
type memEntry struct {
	words map[string]bool
	rec   *Record
	frec  *FuncRecord
}

// DefaultMemoryEntries bounds a Memory store when the caller passes
// maxEntries <= 0. With a word set or Record per entry, tens of thousands
// of entries are typically a few hundred MB at most.
const DefaultMemoryEntries = 65536

// NewMemory returns an in-memory store holding at most maxEntries entries
// (scan and result entries pooled together), evicting least-recently-used
// first. disk, when non-nil, backs the memory layer: misses fall through to
// it and writes go through to it.
func NewMemory(disk *Cache, maxEntries int) *Memory {
	m := &Memory{lru: NewLRU[*memEntry](maxEntries, DefaultMemoryEntries)}
	if disk != nil {
		m.disk = disk
	}
	return m
}

// Len reports the number of resident entries.
func (m *Memory) Len() int { return m.lru.Len() }

// HitsMisses reports how many lookups were answered from RAM vs not (a
// miss may still be answered by the backing disk store).
func (m *Memory) HitsMisses() (hits, misses int64) { return m.lru.HitsMisses() }

// Invalidate drops every resident entry. The backing disk store, which is
// invalidated by content hashing alone, is untouched.
func (m *Memory) Invalidate() { m.lru.Clear() }

// Words implements Store.
func (m *Memory) Words(fileHash string) (map[string]bool, bool) {
	k := "w\x00" + fileHash
	if e, ok := m.lru.Get(k); ok {
		return e.words, true
	}
	if m.disk != nil {
		if words, ok := m.disk.Words(fileHash); ok {
			m.lru.Add(k, &memEntry{words: words})
			return words, true
		}
	}
	return nil, false
}

// PutWords implements Store.
func (m *Memory) PutWords(fileHash string, words map[string]bool) error {
	m.lru.Add("w\x00"+fileHash, &memEntry{words: words})
	if m.disk != nil {
		return m.disk.PutWords(fileHash, words)
	}
	return nil
}

// Result implements Store.
func (m *Memory) Result(key, fileHash string) (*Record, bool) {
	k := "r\x00" + key + "\x00" + fileHash
	if e, ok := m.lru.Get(k); ok {
		return e.rec, true
	}
	if m.disk != nil {
		if rec, ok := m.disk.Result(key, fileHash); ok {
			m.lru.Add(k, &memEntry{rec: rec})
			return rec, true
		}
	}
	return nil, false
}

// PutResult implements Store. Like the disk layer it fills a changed
// record's Sum when the caller has not, so every Record a Store returns
// carries its output's content hash.
func (m *Memory) PutResult(key, fileHash string, r *Record) error {
	if r.Changed && r.Sum == "" {
		r.Sum = HashString(r.Output)
	}
	m.lru.Add("r\x00"+key+"\x00"+fileHash, &memEntry{rec: r})
	if m.disk != nil {
		return m.disk.PutResult(key, fileHash, r)
	}
	return nil
}

// FuncResult implements Store.
func (m *Memory) FuncResult(key, fnHash string) (*FuncRecord, bool) {
	k := "f\x00" + key + "\x00" + fnHash
	if e, ok := m.lru.Get(k); ok {
		return e.frec, true
	}
	if m.disk != nil {
		if rec, ok := m.disk.FuncResult(key, fnHash); ok {
			m.lru.Add(k, &memEntry{frec: rec})
			return rec, true
		}
	}
	return nil, false
}

// PutFuncResult implements Store.
func (m *Memory) PutFuncResult(key, fnHash string, r *FuncRecord) error {
	m.lru.Add("f\x00"+key+"\x00"+fnHash, &memEntry{frec: r})
	if m.disk != nil {
		return m.disk.PutFuncResult(key, fnHash, r)
	}
	return nil
}
