"""The benchmark's tracer wraps program functions by name: the names it
patches on repoharvest.cli must exist, and restoring must put the
originals back."""
from __future__ import annotations

import sys
from pathlib import Path

import requests

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from repoharvest import cli  # noqa: E402
from repoharvest.arxiv import ArxivClient  # noqa: E402
from repoharvest.github import GitHubClient  # noqa: E402

HOOKED = {
    "execute_pipeline", "load_records", "diff", "save_records", "export_table",
    "export_report", "extract_urls", "clean_url", "canonicalize", "dedupe", "classify",
}


def test_tracer_patches_the_cli_names_and_restores_them():
    before = dict(vars(cli))
    with requests.Session() as feed, requests.Session() as api:
        arxiv_client = ArxivClient(session=feed)
        github_client = GitHubClient(token="t", session=api)
        tracer = Tracer()
        workloads.install_tracing(tracer, arxiv_client, github_client, feed, api)
        try:
            patched = {name for name, value in vars(cli).items()
                       if before.get(name) is not value}
        finally:
            tracer.restore()
    assert patched == HOOKED
    assert vars(cli) == before
