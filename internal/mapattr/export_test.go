package mapattr

// ChunkSegs exposes the route chunk length to the external differential
// test, whose oracle cuts routes the same way.
const ChunkSegs = attrChunkSegs
