"""cfdistill: song embeddings from listening logs, an audio-to-embedding
estimator network, and knowledge-transfer regimes for task models."""
