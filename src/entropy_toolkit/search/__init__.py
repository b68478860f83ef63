"""Distribution search, point clouds and the cross-section geometry."""
