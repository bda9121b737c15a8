package repro

import (
	"slices"
	"sort"
)

// ReplicaAssignment is one database this process must serve after a
// topology change: the database's name, its advertised category, the
// replica addresses serving it, and which replica this process prefers
// (the topology's owner-rank rotation). cmd/metasearch derives these
// from shardmap.ShardAssignments; the type lives here so the library
// does not depend on the topology-file format.
type ReplicaAssignment struct {
	Database  string
	Category  string
	Replicas  []string
	Preferred int
}

// TopologySwapReport is what one ApplyReplicaAssignments call changed —
// the shard-side swap audit record.
type TopologySwapReport struct {
	// Attached lists databases that entered this process's scope (lazy
	// replica handles created); Detached those that left (handles
	// drained and closed).
	Attached []string `json:"attached,omitempty"`
	Detached []string `json:"detached,omitempty"`
	// Unknown lists assigned databases with no summary in the store:
	// they cannot be selected (selection is summary-driven), so they are
	// skipped until a rebuilt summary file is loaded.
	Unknown []string `json:"unknown,omitempty"`
	// ReplicasAdded/Removed map database name → replica addresses that
	// joined or left its live replica set.
	ReplicasAdded   map[string][]string `json:"replicas_added,omitempty"`
	ReplicasRemoved map[string][]string `json:"replicas_removed,omitempty"`
	// ScopeChanged reports whether the search scope itself changed
	// (attach/detach), which also invalidates the query caches.
	ScopeChanged bool `json:"scope_changed"`
}

// ApplyReplicaAssignments reconciles this process's live replica
// handles and search scope with a new topology — the shard-side half of
// a zero-downtime reconfiguration. For each assigned database:
//
//   - already in scope with a replicated handle: the replica set is
//     swapped in place (ReplicatedDatabase.UpdateReplicas) — surviving
//     replicas keep breaker state, clients, and in-flight counts;
//     removed ones drain and close; added ones get lazy clients with
//     breakers seeded half-open.
//   - newly in scope: a lazy replicated handle is attached (no network
//     I/O on the swap path) and the database joins the search scope.
//   - assigned but absent from the summary store: skipped and reported
//     — a database the selection statistics do not cover cannot serve.
//
// Databases in scope but no longer assigned are detached: their handles
// drain and close in the background, their breakers leave the set, and
// they revert to selection-only participation (exactly like an
// out-of-scope database at load time). In-flight searches finish on the
// handles they hold. A changed scope or handle set is published as a
// new serving state, which stales the query caches (a cached merged
// result describes the old scope); a swap confined to replica sets
// publishes nothing. The health prober, if running, is retargeted
// either way.
//
// client configures the wire clients of replicas created by this swap;
// its Budget defaults to the process's retry budget.
func (m *Metasearcher) ApplyReplicaAssignments(assigns []ReplicaAssignment, client RemoteDatabaseOptions) (*TopologySwapReport, error) {
	if client.Budget == nil {
		client.Budget = m.budget
	}
	rep := &TopologySwapReport{}
	var closing []*ReplicatedDatabase
	err := m.update(func(next *servingState) error {
		dbs := slices.Clone(next.dbs)
		assigned := make(map[string]bool, len(assigns))
		newScope := make(map[string]bool, len(assigns))
		for _, a := range assigns {
			assigned[a.Database] = true
			i, r := next.find(a.Database)
			if r == nil {
				rep.Unknown = append(rep.Unknown, a.Database)
				continue
			}
			newScope[a.Database] = true
			if rd, ok := r.db.(*ReplicatedDatabase); ok {
				added, removed, err := rd.UpdateReplicas(a.Replicas, a.Preferred)
				if err != nil {
					return err
				}
				if len(added) > 0 {
					if rep.ReplicasAdded == nil {
						rep.ReplicasAdded = make(map[string][]string)
					}
					rep.ReplicasAdded[a.Database] = added
				}
				if len(removed) > 0 {
					if rep.ReplicasRemoved == nil {
						rep.ReplicasRemoved = make(map[string][]string)
					}
					rep.ReplicasRemoved[a.Database] = removed
				}
				continue
			}
			// Newly in scope (or a non-replicated handle being promoted):
			// attach a lazy replicated handle.
			rd, err := NewReplicatedDatabase(a.Database, a.Category, 0, a.Replicas, ReplicatedDatabaseOptions{
				Preferred: a.Preferred,
				Breakers:  m.breakers,
				Metrics:   m.reg,
				Client:    client,
			})
			if err != nil {
				return err
			}
			c := *r
			c.db = rd
			dbs[i] = &c
			rep.Attached = append(rep.Attached, a.Database)
		}

		// The old effective scope: the explicit scope set when present
		// (cluster shards after LoadFiltered), otherwise every database
		// with a live handle (an unscoped process adopting a topology).
		oldScope := make(map[string]bool)
		for _, r := range next.dbs {
			if next.scope != nil {
				if next.scope[r.name] {
					oldScope[r.name] = true
				}
			} else if r.db != nil {
				oldScope[r.name] = true
			}
		}

		// Detach databases that left this process's slice; their handles
		// are closed once the state without them is published.
		for i, r := range dbs {
			if r.db == nil || assigned[r.name] || !oldScope[r.name] {
				continue
			}
			if rd, ok := r.db.(*ReplicatedDatabase); ok {
				closing = append(closing, rd)
			}
			c := *r
			c.db = nil
			dbs[i] = &c
			rep.Detached = append(rep.Detached, r.name)
		}

		rep.ScopeChanged = len(newScope) != len(oldScope)
		for name := range newScope {
			if !oldScope[name] {
				rep.ScopeChanged = true
			}
		}
		if !rep.ScopeChanged && len(rep.Attached) == 0 && next.scope != nil {
			// Replica sets were swapped inside their handles; the
			// serving state itself is unchanged, and so are the caches.
			return errUnchanged
		}
		next.dbs, next.scope = dbs, newScope
		return nil
	})
	if err != nil {
		return rep, err
	}
	// Drain and close departed handles only once no new query can pick
	// them up; in-flight searches finish on the handles they hold.
	for _, rd := range closing {
		rd.Close()
	}
	for _, name := range rep.Detached {
		m.breakers.Remove(name)
	}

	sort.Strings(rep.Attached)
	sort.Strings(rep.Detached)
	sort.Strings(rep.Unknown)
	m.refreshProbeTargets()
	m.logInfo("topology swap applied",
		"attached", len(rep.Attached), "detached", len(rep.Detached),
		"unknown", len(rep.Unknown), "scope_changed", rep.ScopeChanged)
	return rep, nil
}
