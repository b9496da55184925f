package mtree

import (
	"errors"
	"fmt"
	"math"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// Delete removes the object with the given OID from the tree. The caller
// supplies the object value so the search can use the routing structure
// (the M-tree stores no OID directory); the traversal descends only
// subtrees whose region can contain the object, exactly like a
// radius-zero range query.
//
// Deletion keeps every invariant Verify checks: covering radii are upper
// bounds and remain valid when objects leave; nodes that become empty
// are unlinked from their parents; if the root is left with a single
// child, the tree shrinks. Radii are NOT tightened (that would require
// re-measuring subtrees), so heavily-deleted trees predict slightly
// pessimistic costs until rebuilt — the trade documented in the README.
//
// It returns ErrNotFound when no entry matches both the OID and the
// object.
func (t *Tree) Delete(obj metric.Object, oid uint64) error {
	if obj == nil {
		return errors.New("mtree: nil object")
	}
	t.beginWrite()
	if t.root == pager.InvalidPage {
		return ErrNotFound
	}
	removed, empty, err := t.deleteAt(t.root, obj, oid)
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	t.size--
	if empty {
		// The whole tree is gone.
		t.store.free(t.root)
		t.root = pager.InvalidPage
		t.height = 0
		if t.size != 0 {
			return fmt.Errorf("mtree: tree emptied with %d objects unaccounted", t.size)
		}
		return nil
	}
	// Shrink the root while it is an internal node with a single child.
	for {
		n, err := t.fetch(t.root)
		if err != nil {
			return err
		}
		if n.leaf || len(n.entries) != 1 {
			break
		}
		t.store.free(t.root)
		t.root = n.entries[0].Child
		t.height--
		// The new root's entries lose their routing object: parent
		// distances become NaN by the root convention.
		nr, err := t.fetch(t.root)
		if err != nil {
			return err
		}
		for i := range nr.entries {
			nr.entries[i].ParentDist = math.NaN()
		}
		if err := t.store.store(nr); err != nil {
			return err
		}
	}
	return nil
}

// ErrNotFound reports a Delete for an object that is not in the tree.
var ErrNotFound = errors.New("mtree: object not found")

// deleteAt removes (obj, oid) from the subtree at id. It reports whether
// the entry was removed and whether the node is now empty (so the parent
// must unlink it).
func (t *Tree) deleteAt(id pager.PageID, obj metric.Object, oid uint64) (removed, empty bool, err error) {
	n, err := t.fetch(id)
	if err != nil {
		return false, false, err
	}
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			if e.OID != oid {
				continue
			}
			if t.dist(obj, e.Object) != 0 {
				return false, false, fmt.Errorf("mtree: OID %d found but object differs", oid)
			}
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			return true, len(n.entries) == 0, t.store.store(n)
		}
		return false, false, nil
	}
	for i := range n.entries {
		e := &n.entries[i]
		// The object can only live under entries whose ball contains it.
		if t.dist(obj, e.Object) > e.Radius {
			continue
		}
		childRemoved, childEmpty, err := t.deleteAt(e.Child, obj, oid)
		if err != nil {
			return false, false, err
		}
		if !childRemoved {
			continue
		}
		if childEmpty {
			t.store.free(e.Child)
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			if err := t.store.store(n); err != nil {
				return true, false, err
			}
		}
		return true, len(n.entries) == 0, nil
	}
	return false, false, nil
}
