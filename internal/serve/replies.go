package serve

// The reply memo: rendered figure, table, snapshot and measure replies,
// answered again without dispatching, measuring, rendering or taking an
// execution slot.
//
// A driver's reply bytes are a pure function of the driver id, the
// effective Scale and Benches, and the resolved format — at any job
// count, warm or cold (CI diffs the daemon against the CLI, and serial
// against parallel). Those four inputs are therefore the whole key;
// Jobs and deadlines are not in it. A measure reply is likewise a pure
// function of its resolved cell and format (measureKey). Only replies
// whose run and render both succeeded are stored, so an error, a 504 or
// a bad format is answered afresh every time.

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ninjagap/internal/gap"
)

// maxReplyEntries bounds the reply memo; beyond it an arbitrary entry is
// dropped, as in submit's response memo. One (scale, benches) pair has
// 27 replies (12 ids in JSON and text, 3 of them also in CSV), about
// 130 KB; the largest, the full JSON snapshot, is about 34 KB (40 KB
// allocated), so the memo stays near 10 MB at most.
const maxReplyEntries = 256

// reply is one rendered driver reply.
type reply struct {
	body        []byte
	contentType string
}

// render encodes out in format f.
func render(out gap.Output, f string) (reply, error) {
	var buf bytes.Buffer
	if err := out.Emit(&buf, f); err != nil {
		return reply{}, err
	}
	ct := "text/plain; charset=utf-8"
	if f == "json" {
		ct = "application/json"
	}
	return reply{body: buf.Bytes(), contentType: ct}, nil
}

// write sends r under its Content-Type.
func (r reply) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", r.contentType)
	_, _ = w.Write(r.body)
}

// replyKey is the reply memo's key: driver id, scale (shortest exact
// rendering), bench list in request order (empty: the whole suite) and
// format. Ids and bench names are validated before the key is built and
// hold no '|', and the unvalidated format comes last, so the key is
// unambiguous.
func replyKey(id string, cfg gap.Config, f string) string {
	var sb strings.Builder
	sb.WriteString(id)
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatFloat(cfg.Scale, 'g', -1, 64))
	sb.WriteByte('|')
	for i, b := range cfg.Benches {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(b)
	}
	sb.WriteByte('|')
	sb.WriteString(f)
	return sb.String()
}

// measureKey is the reply memo's key for a /v1/measure reply: bench,
// version, machine, resolved n, requested threads and format. The scale
// is not in it, since it only picks n, so an explicit n equal to the
// scale's shares the entry. Names are validated and hold no '|', the
// format comes last, and no driver id is "measure", so the key is
// unambiguous and never equals a replyKey.
func measureKey(c gap.Cell, f string) string {
	return "measure|" + c.Bench.Name() + "|" + c.Version.String() + "|" + c.Machine.Name + "|" +
		strconv.Itoa(c.N) + "|" + strconv.Itoa(c.Threads) + "|" + f
}

// replyMemo is a Server's bounded reply memo. Safe for concurrent use.
type replyMemo struct {
	mu     sync.Mutex
	m      map[string]reply
	hits   atomic.Int64
	misses atomic.Int64
}

func newReplyMemo() *replyMemo { return &replyMemo{m: map[string]reply{}} }

// get returns the reply stored under key, counting a hit or a miss.
func (c *replyMemo) get(key string) (reply, bool) {
	c.mu.Lock()
	r, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

// put stores r under key, dropping an arbitrary entry when full.
func (c *replyMemo) put(key string, r reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok && len(c.m) >= maxReplyEntries {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = r
}

// stats reports hits, misses and the current entry count.
func (c *replyMemo) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	entries = len(c.m)
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), entries
}
