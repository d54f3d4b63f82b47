"""Distributed MIMO radar detection: signal model, detectors, closed-form
performance, and seeded Monte Carlo validation."""
