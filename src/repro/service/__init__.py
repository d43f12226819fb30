"""Simulation-as-a-service: the ``repro serve`` HTTP front-end.

The server is a deliberately *thin* layer over the durable campaign
queue (:mod:`repro.campaign.queue`): accepting a submission means
writing the same store manifest and queue items ``repro campaign``
would write, so a server crash loses nothing that was
accepted — any worker fleet (the server's own supervisor, bare
``repro queue work`` processes, or a post-crash ``repro resume``)
drains the store to the identical bytes.  See DESIGN.md §11.
"""

from repro.service.config import ServiceConfig
from repro.service.server import ReproService, serve_main
from repro.service.submit import (
    IdempotencyConflict,
    SubmissionRegistry,
    default_submission_settings,
    submission_id_of,
)
