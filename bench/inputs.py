"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed and nothing else, so the same seed
always yields the same papers, repositories, faults and stores. The seed
varies names, prose, counts and which repositories carry faults; the shape
(paper count, repository count, contributor pages, fault counts) is fixed
so that runs on different seeds do the same amount of waiting.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from typing import Optional

TIMESTAMP_FMT = "%Y-%m-%dT%H:%M:%SZ"
MEDIUM_STARS = 30
HIGH_STARS = 100
CONTRIBUTORS_PAGE = 100

# Contributor-count buckets, one per successful repository: heavy-tailed
# from 0 (the endpoint answers 204) to 250. Counts are drawn log-uniformly
# inside each bucket, so the number of 100-entry pages is the same for
# every seed.
HARVEST_CONTRIBUTOR_BUCKETS = (
    [(0, 0)] * 2 + [(1, 100)] * 16 + [(101, 200)] * 8 + [(201, 250)] * 4
)
HARVEST_PAPERS = 1000
HARVEST_MISSING = 2
HARVEST_CHANGED = 8

_WORDS = (
    "we propose a method for learning clinical representations from "
    "longitudinal records and evaluate on several benchmark cohorts our "
    "model improves downstream prediction of outcomes while remaining "
    "interpretable code and trained weights are available results show "
    "consistent gains over strong baselines across hospital sites with "
    "electronic health records and medical imaging pipelines"
).split()
_SLUG_WORDS = (
    "clinical health ehr med bio care net graph seq fhir note trial "
    "risk cohort icu vision text lab data signal model"
).split()
_SEPARATORS = ("-", "_", ".", "")
_PUNCT = (".", ",", ";", ")", ":")

# Text that extract_urls matches but canonicalize rejects, and text it must
# not match at all.
_REJECTED = (
    "https://github.com/{owner}",                    # profile, not a repository
    "https://github.com/{owner}/bad%20name",         # not a valid slug
)
_IGNORED = (
    "https://github.com",                            # bare host
    "github.com/{owner}/{name}",                     # no scheme
    "https://gitlab.com/{owner}/{name}",             # another forge
    "see github for details",
)


@dataclass(frozen=True)
class Paper:
    arxiv_id: str
    title: str
    abstract: str
    published: str


@dataclass(frozen=True)
class Repo:
    """A repository as the fake API serves it."""

    repo_id: int
    owner: str
    name: str
    description: Optional[str]
    stars: int
    forks: int
    open_issues: int
    contributors: int
    anonymous: int = 0

    def identity(self) -> tuple[str, str]:
        return (self.owner.lower(), self.name.lower())

    def counts(self) -> tuple[int, int, int, int]:
        return (self.stars, self.forks, self.open_issues, self.contributors)


@dataclass(frozen=True)
class Target:
    """One repository as the papers mention it.

    ``repo`` is None for a repository the API answers 404 for; ``renamed``
    means the mentioned owner/name redirects to ``repo``'s current name.
    """

    owner: str
    name: str
    repo: Optional[Repo]
    renamed: bool = False

    @property
    def url(self) -> str:
        return f"https://github.com/{self.owner}/{self.name}"

    @property
    def stored_url(self) -> str:
        """canonical_url the store keeps: the resolved name after a rename."""
        if self.renamed and self.repo is not None:
            return f"https://github.com/{self.repo.owner}/{self.repo.name}"
        return self.url

    def identity(self) -> tuple[str, str]:
        return (self.owner.lower(), self.name.lower())


@dataclass
class Harvest:
    """Papers plus the repositories they mention, in first-mention order."""

    papers: list[Paper]
    targets: list[Target]
    throttled: tuple[str, str]          # identity whose first request gets a 403
    failing_page: int                   # feed page index that answers 503 once
    page_size: int

    @property
    def ok(self) -> list[Target]:
        return [t for t in self.targets if t.repo is not None]

    @property
    def missing(self) -> list[Target]:
        return [t for t in self.targets if t.repo is None]

    @property
    def pages(self) -> int:
        return math.ceil(len(self.papers) / self.page_size)


def tier(stars: int) -> str:
    if stars >= HIGH_STARS:
        return "High"
    if stars >= MEDIUM_STARS:
        return "Medium"
    return "Low"


def report_line(name: str, stars: int, forks: int, issues: int, contributors: int) -> str:
    """The report sentence, rendered from fixture values independently of
    the program."""
    return (
        f"The project '{name}' has a maturity level of {tier(stars)}. "
        f"It has {stars} stars, {forks} forks, {issues} open issues, "
        f"and {contributors} contributors."
    )


def repo_line(repo: Repo) -> str:
    return report_line(repo.name, repo.stars, repo.forks, repo.open_issues, repo.contributors)


def contributor_pages(count: int) -> int:
    """Pages the program walks for one repository (a 204 is one request)."""
    return max(1, math.ceil(count / CONTRIBUTORS_PAGE))


def _slug(rng: random.Random) -> str:
    parts = rng.sample(_SLUG_WORDS, rng.randint(1, 3))
    text = rng.choice(_SEPARATORS).join(parts)
    if rng.random() < 0.4:
        text += str(rng.randint(1, 99))
    if rng.random() < 0.3:
        text = text.capitalize()
    return text


def _unique_slugs(rng: random.Random, count: int, taken: set) -> list[tuple[str, str]]:
    out = []
    while len(out) < count:
        owner, name = _slug(rng) + str(rng.randint(1, 999)), _slug(rng)
        key = (owner.lower(), name.lower())
        if key not in taken:
            taken.add(key)
            out.append((owner, name))
    return out


def _heavy(rng: random.Random, lo: int, hi: int) -> int:
    """Log-uniform integer in [lo, hi]; lo of 0 means exactly 0."""
    if hi == 0:
        return 0
    return min(hi, int(lo * (hi / lo) ** rng.random()))


def _repo(rng: random.Random, repo_id: int, owner: str, name: str, contributors: int) -> Repo:
    stars = int(10 ** rng.uniform(0, 3.3))
    return Repo(
        repo_id=repo_id,
        owner=owner,
        name=name,
        description=rng.choice([None, " ".join(rng.sample(_WORDS, 6))]),
        stars=stars,
        forks=int(stars * rng.uniform(0.05, 0.4)),
        open_issues=rng.randint(0, 60),
        contributors=contributors,
        anonymous=rng.randint(0, 5),
    )


def _prose(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n_words))


def _variant(rng: random.Random, target: Target) -> str:
    """A second mention that must dedupe onto the first."""
    owner, name = target.owner, target.name
    return rng.choice([
        f"https://github.com/{owner}/{name}.git",
        f"http://www.github.com/{owner}/{name}",
        f"https://github.com/{owner.lower()}/{name.lower()}",
        f"https://github.com/{owner}/{name}/tree/main/src",
    ])


def _build_papers(
    rng: random.Random, n_papers: int, targets: list[Target], n_repeats: int, n_decoys: int
) -> list[Paper]:
    carriers = sorted(rng.sample(range(1, n_papers), len(targets) - 1))
    carriers = [0] + carriers  # the first paper mentions the first target
    mention = {idx: [t.url] for idx, t in zip(carriers, targets)}
    first = {t.identity(): idx for idx, t in zip(carriers, targets)}
    free = [i for i in range(n_papers) if i not in mention]
    for target in rng.sample(targets, n_repeats):
        later = [i for i in free if i > first[target.identity()]]
        if later:
            mention.setdefault(rng.choice(later), []).append(_variant(rng, target))
    decoys = {}
    for idx in rng.sample(free, n_decoys):
        owner, name = _slug(rng), _slug(rng)
        text = rng.choice(_REJECTED + _IGNORED).format(owner=owner, name=name)
        decoys[idx] = text
    papers = []
    for idx in range(n_papers):
        body = _prose(rng, rng.randint(30, 70))
        for url in mention.get(idx, []):
            cut = rng.randint(0, len(body))
            cut = body.rfind(" ", 0, cut) + 1
            body = f"{body[:cut]}Code: {url}{rng.choice(_PUNCT)} {body[cut:]}"
        if idx in decoys:
            body = f"{body} See {decoys[idx]} too."
        published = datetime(2019, 1, 1) + timedelta(days=rng.randint(0, 6 * 365 - 1))
        papers.append(
            Paper(
                arxiv_id=f"{published:%y%m}.{idx:05d}",
                title=_prose(rng, rng.randint(4, 10)).capitalize(),
                abstract=body,
                published=published.strftime(TIMESTAMP_FMT),
            )
        )
    return papers


def harvest_corpus(seed: int) -> Harvest:
    """The production-shaped harvest: ~1000 papers, 32 repositories, faults.

    Faults: two repositories answer 404, one is renamed (its old name
    redirects), one answers a quota 403 with Retry-After to its first
    request, and one feed page answers 503 once. The first mentioned
    repository carries no fault.
    """
    rng = random.Random(f"harvest:{seed}")
    n_targets = len(HARVEST_CONTRIBUTOR_BUCKETS) + HARVEST_MISSING
    slugs = _unique_slugs(rng, n_targets + 1, set())
    buckets = list(HARVEST_CONTRIBUTOR_BUCKETS)
    rng.shuffle(buckets)
    kinds = ["ok"] * len(buckets) + ["missing"] * HARVEST_MISSING
    rest = kinds[1:]
    rng.shuffle(rest)
    kinds = kinds[:1] + rest
    bucket_iter = iter(buckets)
    targets = []
    for index, ((owner, name), kind) in enumerate(zip(slugs, kinds)):
        if kind == "missing":
            targets.append(Target(owner, name, None))
            continue
        lo, hi = next(bucket_iter)
        targets.append(Target(owner, name, _repo(rng, 1000 + index, owner, name, _heavy(rng, lo, hi))))
    ok_after_first = [i for i, t in enumerate(targets) if t.repo is not None and i > 0]
    renamed_at, throttled_at = rng.sample(ok_after_first, 2)
    new_owner, new_name = slugs[-1]
    old = targets[renamed_at]
    targets[renamed_at] = replace(
        old, repo=replace(old.repo, owner=new_owner, name=new_name), renamed=True
    )
    papers = _build_papers(rng, HARVEST_PAPERS, targets, n_repeats=8, n_decoys=40)
    return Harvest(
        papers=papers,
        targets=targets,
        throttled=targets[throttled_at].identity(),
        failing_page=rng.randrange(1, math.ceil(HARVEST_PAPERS / 100)),
        page_size=100,
    )


def changed_repos(harvest: Harvest, seed: int, count: int = HARVEST_CHANGED) -> dict[tuple[str, str], Repo]:
    """New state for a seeded ``count`` of the harvest's repositories.

    Stars always move; forks, issues and contributors sometimes do.
    Contributor counts stay inside their 100-entry page, so a refresh walks
    as many pages as the first harvest did.
    """
    rng = random.Random(f"changes:{seed}")
    changed = {}
    for target in rng.sample(harvest.ok, count):
        repo = target.repo
        contributors = repo.contributors
        if contributors and rng.random() < 0.5:
            page = contributor_pages(contributors)
            lo, hi = (page - 1) * CONTRIBUTORS_PAGE + 1, page * CONTRIBUTORS_PAGE
            contributors = min(hi, max(lo, contributors + rng.choice((-2, -1, 1, 2))))
        changed[target.identity()] = replace(
            repo,
            stars=repo.stars + rng.randint(1, 40),
            forks=repo.forks + rng.choice((0, 0, 1, 3)),
            open_issues=max(0, repo.open_issues + rng.choice((-1, 0, 2))),
            contributors=contributors,
        )
    return changed


# -- the large store --------------------------------------------------------

LARGE_ENTRIES = 10_000
LARGE_SNAPSHOTS = 5
LARGE_PAPERS = 50
LARGE_HARVEST_BUCKETS = [(0, 0), (1, 100), (101, 200), (1, 100), (1, 100), (201, 250), (1, 100)]
_STORE_EPOCH = datetime(2023, 1, 1, tzinfo=timezone.utc)


@dataclass
class LargeStore:
    """A previous store plus the tiny harvest a monitor runs on top of it.

    ``expected`` maps each identity to (canonical URL, report line, counts,
    history length) after the monitor run.
    """

    harvest: Harvest
    added: list[Target]
    updated: list[Target]
    expected: dict[tuple[str, str], tuple[str, tuple, int]]


def _snapshot(name: str, description, counts, when: datetime) -> dict:
    stars, forks, issues, contributors = counts
    return {
        "name": name,
        "description": description,
        "stars": stars,
        "forks": forks,
        "open_issues": issues,
        "contributors": contributors,
        "fetched_at": when.strftime(TIMESTAMP_FMT),
    }


def write_large_store(seed: int, path) -> LargeStore:
    """Write a v1 ``kb.jsonl`` of LARGE_ENTRIES entries x LARGE_SNAPSHOTS
    snapshots, line by line, and return the tiny harvest that refreshes it.

    The tiny harvest mentions eight repositories: two stored ones whose
    counts changed, two stored ones whose counts did not, three new ones,
    and one that answers 404.
    """
    rng = random.Random(f"large:{seed}")
    slugs = _unique_slugs(rng, LARGE_ENTRIES + 4, set())
    stored, new = slugs[:LARGE_ENTRIES], slugs[LARGE_ENTRIES:]
    observed_idx = rng.sample(range(LARGE_ENTRIES), 4)
    # one bucket per harvested repository (4 stored, then 3 new), so the
    # tiny harvest sends the same number of requests for every seed
    buckets = iter(LARGE_HARVEST_BUCKETS)
    observed_buckets = {index: next(buckets) for index in observed_idx}
    expected = {}
    observed: dict[int, Repo] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for index, (owner, name) in enumerate(stored):
            lo, hi = observed_buckets.get(index, (0, 250))
            contributors = _heavy(rng, lo, hi) if index in observed_buckets else rng.randint(lo, hi)
            repo = _repo(rng, 1_000_000 + index, owner, name, contributors)
            first_seen = _STORE_EPOCH + timedelta(seconds=index)
            history = []
            for snap in range(LARGE_SNAPSHOTS - 1):
                when = first_seen + timedelta(days=7 * snap)
                shrink = LARGE_SNAPSHOTS - 1 - snap
                counts = (max(0, repo.stars - shrink), repo.forks, repo.open_issues,
                          repo.contributors)
                history.append(_snapshot(repo.name, repo.description, counts, when))
            latest_at = first_seen + timedelta(days=7 * (LARGE_SNAPSHOTS - 1))
            record = {
                "schema_version": 1,
                "owner": owner,
                "name": name,
                "canonical_url": f"https://github.com/{owner}/{name}",
                "source_papers": [f"2301.{index % 100000:05d}"],
                "tier": tier(repo.stars),
                "first_seen": first_seen.strftime(TIMESTAMP_FMT),
                "latest": _snapshot(repo.name, repo.description, repo.counts(), latest_at),
                "history": history,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            expected[repo.identity()] = (record["canonical_url"], repo_line(repo), repo.counts(),
                                         LARGE_SNAPSHOTS - 1)
            if index in observed_idx:
                observed[index] = repo
    updated, unchanged = [], []
    for position, index in enumerate(observed_idx):
        repo = observed[index]
        if position < 2:
            repo = replace(repo, stars=repo.stars + rng.randint(1, 50))
            updated.append(Target(repo.owner, repo.name, repo))
        else:
            unchanged.append(Target(repo.owner, repo.name, repo))
        # an observed entry appends its old latest to history
        expected[repo.identity()] = (expected[repo.identity()][0], repo_line(repo), repo.counts(),
                                     LARGE_SNAPSHOTS)
    added = []
    for offset, (owner, name) in enumerate(new[:3]):
        lo, hi = next(buckets)
        repo = _repo(rng, 2_000_000 + offset, owner, name, _heavy(rng, lo, hi))
        added.append(Target(owner, name, repo))
        expected[repo.identity()] = (f"https://github.com/{owner}/{name}", repo_line(repo),
                                     repo.counts(), 0)
    missing = Target(new[3][0], new[3][1], None)
    targets = updated + unchanged + added + [missing]
    rng.shuffle(targets)
    papers = _build_papers(rng, LARGE_PAPERS, targets, n_repeats=2, n_decoys=4)
    harvest = Harvest(
        papers=papers,
        targets=targets,
        throttled=("", ""),
        failing_page=-1,
        page_size=LARGE_PAPERS,
    )
    return LargeStore(harvest, added, updated, expected)
