"""Minimal differentiable-network core: layers, losses, Adam, presets."""
