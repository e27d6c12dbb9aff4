"""Read-your-writes session tokens in the client libraries."""

from __future__ import annotations

from repro.server.client import _Surface
from repro.server.errors import ServerError


def _after_reply(reply: dict, token: int) -> int:
    surface = _Surface()
    surface._session_lsn = token
    surface._committed(reply)
    return surface.session_lsn


def _after_error(error: ServerError, token: int) -> int:
    surface = _Surface()
    surface._session_lsn = token
    surface._commit_failed(error)
    return surface.session_lsn


class TestTokenFromReply:
    def test_commit_lsn_advances_the_token(self):
        reply = {"outcome": "committed", "commit_lsn": 42}
        assert _after_reply(reply, 0) == 42

    def test_token_never_regresses(self):
        reply = {"outcome": "committed", "commit_lsn": 7}
        assert _after_reply(reply, 42) == 42

    def test_missing_or_bogus_lsn_is_ignored(self):
        assert _after_reply({"outcome": "committed"}, 5) == 5
        assert _after_reply({"commit_lsn": "nope"}, 5) == 5
        assert _after_reply({"commit_lsn": True}, 5) == 5


class TestTokenFromError:
    def test_indeterminate_commit_still_advances(self):
        # A replication-ack timeout: committed and durable locally,
        # so this session has observed its own write.
        error = ServerError(
            "timed out",
            details={"indeterminate": True, "commit_lsn": 99},
        )
        assert _after_error(error, 10) == 99

    def test_determinate_failure_does_not_advance(self):
        error = ServerError("aborted", details={"commit_lsn": 99})
        assert _after_error(error, 10) == 10
        assert _after_error(ServerError("boom"), 10) == 10
