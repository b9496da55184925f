package router

import "mcost/internal/core"

// ShardModels exposes the per-shard predictors rebuilt at boot, so a
// test can read their k-NN price tables.
func (rt *Router) ShardModels() []*core.MTreeModel {
	models := make([]*core.MTreeModel, len(rt.shards))
	for i, st := range rt.shards {
		models[i] = st.model
	}
	return models
}
