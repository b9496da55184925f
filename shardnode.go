package mcost

import (
	"mcost/internal/mtree"
	"mcost/internal/shard"
)

// ShardNode is one shard of a sharded dataset served as a standalone
// engine: it prices and answers queries for its own partition (with
// global OIDs) and exports the F̂/L-MCM summary a scatter-gather router
// fetches from GET /v1/model. Mount it behind the HTTP server like any
// engine; it is read-only.
type ShardNode = shard.Node

// BuildShardNode runs the full deterministic shard assignment over the
// dataset and builds only shard index of it — the node-side half of the
// distributed tier. Every node of a cluster calls BuildShardNode with
// identical (space, objects, opt, so) and its own index, so the cluster
// collectively holds exactly the partition BuildSharded would have
// built in one process, and a router merging the nodes' answers is
// bit-identical to the in-process sharded Index.
func BuildShardNode(space *Space, objects []Object, opt Options, so ShardOptions, index int) (*ShardNode, error) {
	sh, err := shard.BuildOne(space, objects, opt.shardOptions(so, func(int) (mtree.Options, error) {
		mo, _, err := buildStorage(space, objects[0], opt)
		return mo, err
	}), index)
	if err != nil {
		return nil, err
	}
	return shard.NewNode(space, sh, index, so.Shards, so.Assign)
}
