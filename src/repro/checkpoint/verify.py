"""Record integrity verification (fsck for the checkpoint chain).

A personal recorder accumulates months of incremental chains, file system
snapshots and display records; silent corruption anywhere breaks *Take me
back* long after the damage happened.  :func:`verify_chain` audits the
whole store the way a file system checker would:

* every stored image deserializes and carries a coherent header;
* incremental images' parent pointers are older and acyclic (absent
  parents are fine — pruning removes images nobody's pages need);
* every page-location entry resolves: the owning image exists and actually
  contains that page's data;
* content-addressed manifests resolve: every digest an image references
  is present in the page store and its payload hashes back to the digest;
* full images are self-contained (every location points at themselves);
* saved pages belong to a region the image declares, within bounds;
* every image's checkpoint counter has a file system snapshot binding, and
  the bound snapshot is not newer than the file system's present.

Issues are returned, not raised, so callers can report all of them at
once (and tests can assert on specific codes).
"""

from dataclasses import dataclass

from repro.common.costs import PAGE_SIZE
from repro.common.errors import SnapshotError
from repro.checkpoint.image import page_digest


@dataclass(frozen=True)
class Issue:
    """One verification finding."""

    code: str
    image_id: int
    detail: str

    def __str__(self):
        return "[%s] image %d: %s" % (self.code, self.image_id, self.detail)


@dataclass
class VerifyReport:
    """Outcome of a chain verification pass."""

    images_checked: int
    pages_checked: int
    issues: list

    @property
    def ok(self):
        return not self.issues

    def issues_with(self, code):
        return [issue for issue in self.issues if issue.code == code]


def verify_chain(storage, fsstore=None):
    """Audit every stored checkpoint image; returns a :class:`VerifyReport`.

    ``fsstore`` (optional) additionally checks the checkpoint-to-snapshot
    bindings of section 5.1.1.
    """
    issues = []
    images = {}
    for image_id in storage.stored_ids():
        try:
            images[image_id] = storage.load(image_id, cached=True)
        except Exception as exc:  # corrupt blob
            issues.append(Issue("undecodable", image_id, str(exc)))

    pages_checked = 0
    for image_id, image in sorted(images.items()):
        if image.checkpoint_id != image_id:
            issues.append(Issue(
                "id-mismatch", image_id,
                "header says %d" % image.checkpoint_id,
            ))

        # Parent chain: exists, older, acyclic, ends at a full image.
        if image.full:
            if image.parent_id is not None:
                issues.append(Issue(
                    "full-with-parent", image_id,
                    "full image claims parent %d" % image.parent_id,
                ))
        else:
            seen = {image_id}
            cursor = image
            while not cursor.full:
                parent_id = cursor.parent_id
                if parent_id is None:
                    issues.append(Issue(
                        "broken-chain", image_id,
                        "incremental image without a parent",
                    ))
                    break
                if parent_id in seen:
                    issues.append(Issue(
                        "chain-cycle", image_id,
                        "cycle through image %d" % parent_id,
                    ))
                    break
                if parent_id not in images:
                    # Pruning removes parents whose pages nobody needs;
                    # revivability is guaranteed by the page-location
                    # checks below, so a missing parent alone is fine.
                    break
                if parent_id >= cursor.checkpoint_id:
                    issues.append(Issue(
                        "parent-not-older", image_id,
                        "parent %d >= child %d" % (parent_id,
                                                   cursor.checkpoint_id),
                    ))
                    break
                seen.add(parent_id)
                cursor = images[parent_id]

        # Region bounds for saved pages.
        regions = {
            (vpid, record["start"]): record
            for vpid, records in image.regions.items()
            for record in records
        }
        for (vpid, region_start, page_index), content in image.pages.items():
            pages_checked += 1
            record = regions.get((vpid, region_start))
            if record is None:
                issues.append(Issue(
                    "orphan-page", image_id,
                    "page for unknown region vpid=%d start=%#x"
                    % (vpid, region_start),
                ))
                continue
            if page_index >= record["npages"]:
                issues.append(Issue(
                    "page-out-of-bounds", image_id,
                    "page %d beyond region of %d pages"
                    % (page_index, record["npages"]),
                ))
            if len(content) > PAGE_SIZE:
                issues.append(Issue(
                    "oversized-page", image_id,
                    "page payload of %d bytes" % len(content),
                ))

        # Page locations must resolve to stored pages.
        for key, owner_id in image.page_locations.items():
            if image.full and owner_id != image_id:
                issues.append(Issue(
                    "full-not-self-contained", image_id,
                    "full image points %r at image %d" % (key, owner_id),
                ))
                continue
            owner = images.get(owner_id)
            if owner is None:
                issues.append(Issue(
                    "dangling-location", image_id,
                    "page %r owned by missing image %d" % (key, owner_id),
                ))
            elif key not in owner.pages:
                issues.append(Issue(
                    "unresolvable-page", image_id,
                    "page %r absent from image %d" % (key, owner_id),
                ))

        # Content-addressed manifests must resolve into the page store.
        for digest in storage.manifest_digests(image_id):
            payload = storage.cas_page(digest)
            if payload is None:
                issues.append(Issue(
                    "dangling-digest", image_id,
                    "manifest references digest %s absent from the page "
                    "store" % digest.hex()[:12],
                ))
            elif page_digest(payload) != digest:
                issues.append(Issue(
                    "page-digest-mismatch", image_id,
                    "page store payload for %s fails its content hash"
                    % digest.hex()[:12],
                ))

        # File system binding (section 5.1.1).
        if fsstore is not None:
            try:
                txn = fsstore.fs.txn_for_checkpoint(image_id)
            except SnapshotError:
                issues.append(Issue(
                    "missing-fs-binding", image_id,
                    "no file system snapshot bound to this checkpoint",
                ))
            else:
                if image.fs_txn is not None and txn != image.fs_txn:
                    issues.append(Issue(
                        "fs-binding-mismatch", image_id,
                        "image says txn %r, log says %r"
                        % (image.fs_txn, txn),
                    ))
                if txn > fsstore.fs.current_txn:
                    issues.append(Issue(
                        "fs-binding-future", image_id,
                        "bound txn %d is in the future" % txn,
                    ))

    # Writeback-pipeline tripwire: in synchronous mode every manifest
    # commit force-flushes the touched shards, so the append queues must
    # be empty whenever verification runs.  Async (fleet) storage keeps
    # a live backlog by design — queued pages are readable and owned, so
    # a non-empty queue is not an integrity issue there.
    if not storage.cas.async_writeback:
        stale = storage.cas.unflushed_digests()
        if stale:
            issues.append(Issue(
                "unflushed-pages", -1,
                "%d page(s) stuck in the sync-mode append queue "
                "(e.g. %s)" % (len(stale),
                               sorted(stale)[0].hex()[:12]),
            ))

    return VerifyReport(
        images_checked=len(images),
        pages_checked=pages_checked,
        issues=issues,
    )
