"""Harvest GitHub repositories cited in arXiv paper metadata, grade their
maturity from live repository statistics, and keep the results in an
incrementally updatable knowledge base."""
