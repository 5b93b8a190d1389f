// Package vo implements variable orders: the tree-shaped elimination
// orders over query variables from which F-IVM derives its view trees.
// Each node marginalizes one variable; every input relation is anchored
// at its lowest variable, and validity requires each relation's schema
// to lie on a single root-to-leaf path.
//
// # Key invariants
//
//   - Every relation is anchored at exactly one node: the deepest node
//     whose root-to-here path covers the relation's schema. The
//     leaf-to-root path from that anchor is the only part of the view
//     tree an update to the relation can change.
//   - A node's Keys (its dependency set) are the ancestor variables
//     that co-occur with variables of its subtree in some relation —
//     the group-by schema of the node's view, and the join key through
//     which deltas from the subtree flow upward (a cluster shard map
//     routes a relation's updates by it).
//   - Disconnected queries yield a forest; the root views combine by
//     Cartesian product at the top.
//
// Build derives an order with the greedy heuristic of the F-IVM
// prototype (pick the variable in the most remaining relations, recurse
// into connected components); Validate checks hand-crafted orders for
// the same structural properties.
package vo
