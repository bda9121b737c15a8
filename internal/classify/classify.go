// Package classify implements probe-based hierarchical database
// classification in the style of QProber [Gravano, Ipeirotis & Sahami,
// ACM TOIS 2003], which the paper uses to classify the TREC databases
// into the topic hierarchy (Section 5.2) and which Focused Probing
// builds its query probes from.
//
// A Classifier is trained from labeled example documents: for every
// category it learns a small set of discriminative single-word probes.
// To classify a database, the classifier descends the hierarchy from
// the root; at each node it sends each child category's probes to the
// database — observing only the number of matches, never the documents
// — and computes the child's Coverage (total matches) and Specificity
// (its share of all children's matches). It descends into the best
// child that exceeds both thresholds, and stops when no child
// qualifies. Following the paper's adaptation of QProber, every
// database ends up in exactly one category.
package classify

import (
	"errors"
	"math"
	"slices"
	"sort"

	"repro/internal/hierarchy"
	"repro/internal/telemetry"
)

// Prober is the minimal query interface of an uncooperative database:
// it reports only how many documents match a conjunctive query.
type Prober interface {
	MatchCount(query []string) int
}

// Options tunes training and classification.
type Options struct {
	// ProbesPerCategory is the number of probe words learned per
	// category (default 10).
	ProbesPerCategory int
	// TauSpecificity is the minimum share of sibling coverage a child
	// must attain to be descended into (default 0.45, in the spirit of
	// QProber's tau_es).
	TauSpecificity float64
	// TauCoverage is the minimum absolute number of probe matches
	// (default 10, QProber's tau_ec).
	TauCoverage int
}

func (o Options) withDefaults() Options {
	if o.ProbesPerCategory == 0 {
		o.ProbesPerCategory = 10
	}
	if o.TauSpecificity == 0 {
		o.TauSpecificity = 0.45
	}
	if o.TauCoverage == 0 {
		o.TauCoverage = 10
	}
	return o
}

// TrainingSet holds labeled example documents. A document labeled with
// category C is a positive example for C and all of C's ancestors.
type TrainingSet struct {
	docs   [][]string
	labels []hierarchy.NodeID
}

// Add appends one labeled document (a slice of analyzed terms).
func (ts *TrainingSet) Add(label hierarchy.NodeID, doc []string) {
	owned := make([]string, len(doc))
	copy(owned, doc)
	ts.docs = append(ts.docs, owned)
	ts.labels = append(ts.labels, label)
}

// Len returns the number of training documents.
func (ts *TrainingSet) Len() int { return len(ts.docs) }

// Clone returns a copy that Add can extend without touching ts (the
// documents themselves are never modified, so they are shared).
func (ts *TrainingSet) Clone() *TrainingSet {
	return &TrainingSet{docs: slices.Clip(ts.docs), labels: slices.Clip(ts.labels)}
}

// TopWords returns the n most document-frequent words across the
// training set, ties broken alphabetically. Metasearchers use these to
// bootstrap query-based sampling: dictionary words that provably occur
// in on-topic text.
func (ts *TrainingSet) TopWords(n int) []string {
	df := make(map[string]int)
	seen := make(map[string]bool, 128)
	for _, doc := range ts.docs {
		for k := range seen {
			delete(seen, k)
		}
		for _, w := range doc {
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	words := make([]string, 0, len(df))
	for w := range df {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if df[words[i]] != df[words[j]] {
			return df[words[i]] > df[words[j]]
		}
		return words[i] < words[j]
	})
	if n < len(words) {
		words = words[:n]
	}
	return words
}

// Classifier holds the learned probes. It is immutable after Train and
// safe for concurrent use.
type Classifier struct {
	tree   *hierarchy.Tree
	opts   Options
	probes map[hierarchy.NodeID][]string
}

// Train learns probe words for every non-root category of tree from the
// training set, using a Naive-Bayes-style odds score: words that are
// frequent in a category's documents and rare elsewhere become probes.
func Train(tree *hierarchy.Tree, ts *TrainingSet, opts Options) (*Classifier, error) {
	opts = opts.withDefaults()
	if ts.Len() == 0 {
		return nil, errors.New("classify: empty training set")
	}
	// Document frequency of each word within each category subtree.
	catDF := make(map[hierarchy.NodeID]map[string]int)
	catDocs := make(map[hierarchy.NodeID]int)
	for _, id := range tree.All() {
		catDF[id] = make(map[string]int)
	}
	total := ts.Len()
	for i, doc := range ts.docs {
		seen := make(map[string]bool, len(doc))
		for _, w := range doc {
			if seen[w] {
				continue
			}
			seen[w] = true
		}
		// Credit the document to its label and every ancestor.
		for _, anc := range tree.Path(ts.labels[i]) {
			catDocs[anc]++
			df := catDF[anc]
			for w := range seen {
				df[w]++
			}
		}
	}

	// First pass: an ordered discriminative-word list per category.
	ranked := make(map[hierarchy.NodeID][]string)
	for _, id := range tree.All() {
		if id == hierarchy.Root {
			continue
		}
		nIn := catDocs[id]
		if nIn == 0 {
			continue // no training data for this subtree
		}
		nOut := total - nIn
		type scored struct {
			w string
			s float64
		}
		var cands []scored
		for w, dfIn := range catDF[id] {
			dfOut := catDF[hierarchy.Root][w] - dfIn
			pIn := (float64(dfIn) + 0.5) / (float64(nIn) + 1)
			pOut := (float64(dfOut) + 0.5) / (float64(nOut) + 1)
			if pIn <= pOut {
				continue
			}
			cands = append(cands, scored{w, pIn * math.Log(pIn/pOut)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].s != cands[b].s {
				return cands[a].s > cands[b].s
			}
			return cands[a].w < cands[b].w
		})
		words := make([]string, len(cands))
		for i, cd := range cands {
			words[i] = cd.w
		}
		ranked[id] = words
	}

	// Second pass (postorder): a leaf's probes are its own top words; an
	// internal category's probes interleave its children's probes so
	// that every subtopic is represented — a category whose probe set
	// collapsed onto one subtopic would miss databases about its other
	// subtopics entirely.
	c := &Classifier{tree: tree, opts: opts, probes: make(map[hierarchy.NodeID][]string)}
	var build func(id hierarchy.NodeID) []string
	build = func(id hierarchy.NodeID) []string {
		var childProbes [][]string
		for _, ch := range tree.Children(id) {
			if p := build(ch); len(p) > 0 {
				childProbes = append(childProbes, p)
			}
		}
		if id == hierarchy.Root {
			return nil
		}
		n := opts.ProbesPerCategory
		seen := make(map[string]bool, n)
		probes := make([]string, 0, n)
		add := func(w string) {
			if !seen[w] && len(probes) < n {
				seen[w] = true
				probes = append(probes, w)
			}
		}
		// An internal category's own discriminative words (which its
		// whole subtree shares) get half the budget: a database about
		// the category broadly — rather than any one subtopic — matches
		// these, so probing doesn't come up empty on it.
		if len(childProbes) > 0 {
			own := (n + 1) / 2
			for _, w := range ranked[id] {
				if len(probes) >= own {
					break
				}
				add(w)
			}
		}
		// Round-robin over the children's probe lists.
		for i := 0; len(probes) < n; i++ {
			advanced := false
			for _, cp := range childProbes {
				if i < len(cp) {
					add(cp[i])
					advanced = true
				}
			}
			if !advanced {
				break
			}
		}
		// Fill any remainder with the category's own top words.
		for _, w := range ranked[id] {
			if len(probes) >= n {
				break
			}
			add(w)
		}
		if len(probes) > 0 {
			c.probes[id] = probes
		}
		return probes
	}
	build(hierarchy.Root)
	return c, nil
}

// Probes returns the learned probe words for a category (nil for the
// root or untrained categories). The slice must not be modified.
func (c *Classifier) Probes(id hierarchy.NodeID) []string { return c.probes[id] }

// Tree returns the hierarchy the classifier was trained over.
func (c *Classifier) Tree() *hierarchy.Tree { return c.tree }

// ChildScore reports one child category's probe statistics at a node.
type ChildScore struct {
	Category    hierarchy.NodeID
	Coverage    int     // total matches over the child's probes
	Specificity float64 // share of all siblings' coverage
}

// ScoreChildren probes the database with every child category's probes
// and returns their coverage/specificity, sorted by decreasing coverage.
// Focused Probing reuses these scores to decide which subtrees to probe
// further (Section 5.2).
func (c *Classifier) ScoreChildren(db Prober, node hierarchy.NodeID) []ChildScore {
	children := c.tree.Children(node)
	if len(children) == 0 {
		return nil
	}
	scores := make([]ChildScore, 0, len(children))
	var total int
	for _, ch := range children {
		var cov int
		for _, probe := range c.probes[ch] {
			cov += db.MatchCount([]string{probe})
		}
		total += cov
		scores = append(scores, ChildScore{Category: ch, Coverage: cov})
	}
	for i := range scores {
		if total > 0 {
			scores[i].Specificity = float64(scores[i].Coverage) / float64(total)
		}
	}
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].Coverage != scores[b].Coverage {
			return scores[a].Coverage > scores[b].Coverage
		}
		return scores[a].Category < scores[b].Category
	})
	return scores
}

// Classify assigns the database to exactly one category: it starts at
// the root and repeatedly descends into the highest-coverage child that
// passes both thresholds, stopping when none qualifies.
func (c *Classifier) Classify(db Prober) hierarchy.NodeID {
	return c.ClassifyTraced(db, nil, nil)
}

// ClassifyTraced is Classify with telemetry: every hierarchy level
// probed emits a classify.descend event on span (the level's winner,
// its coverage and specificity) and every probe query sent counts
// toward classify_probes_total in reg. Both span and reg may be nil.
func (c *Classifier) ClassifyTraced(db Prober, span *telemetry.Span, reg *telemetry.Registry) hierarchy.NodeID {
	probes := reg.Counter("classify_probes_total")
	node := hierarchy.Root
	for {
		for _, ch := range c.tree.Children(node) {
			probes.Add(int64(len(c.probes[ch])))
		}
		scores := c.ScoreChildren(db, node)
		if len(scores) == 0 {
			return node
		}
		best := scores[0]
		span.Event("classify.descend",
			telemetry.String("at", c.tree.Node(node).Name),
			telemetry.String("best", c.tree.Node(best.Category).Name),
			telemetry.Int("coverage", best.Coverage),
			telemetry.Float("specificity", best.Specificity),
			telemetry.Bool("qualifies", best.Coverage >= c.opts.TauCoverage && best.Specificity >= c.opts.TauSpecificity))
		if best.Coverage < c.opts.TauCoverage || best.Specificity < c.opts.TauSpecificity {
			return node
		}
		node = best.Category
	}
}
