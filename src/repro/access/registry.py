"""Desktop-wide accessibility registry.

The equivalent of AT-SPI's registry daemon: applications register
themselves; AT clients (DejaView's indexing daemon, screen readers) ask to
"deliver events when new text is displayed or existing text on the screen
changes" (section 4.2).  Delivery is synchronous through the shared
:class:`~repro.common.events.EventBus`.
"""

from repro.common.costs import DEFAULT_COSTS
from repro.common.events import EventBus
from repro.access.events import TOPIC


class DesktopRegistry:
    """Registry of accessible applications plus the event channel."""

    def __init__(self, clock, costs=DEFAULT_COSTS, bus=None):
        self.clock = clock
        self.costs = costs
        self.bus = bus if bus is not None else EventBus()
        self._apps = {}

    APP_TOPIC = "accessibility.apps"

    def register_app(self, app):
        if app.name in self._apps:
            raise ValueError("application %r already registered" % app.name)
        self._apps[app.name] = app
        # AT clients already running adopt the newcomer (they registered
        # "at startup" for apps that existed then; later launches arrive
        # through this notification).
        self.bus.publish(self.APP_TOPIC, app)

    def subscribe_app_registration(self, handler):
        return self.bus.subscribe(self.APP_TOPIC, handler)

    def unregister_app(self, name):
        self._apps.pop(name, None)

    def apps(self):
        """All registered applications, in registration order."""
        return list(self._apps.values())

    def app(self, name):
        return self._apps[name]

    def subscribe(self, handler):
        """Register an AT client for accessibility events."""
        return self.bus.subscribe(TOPIC, handler)

    def has_clients(self):
        """Is any AT client (daemon, screen reader) listening?"""
        return self.bus.subscriber_count(TOPIC) > 0

    def emit(self, event):
        """Deliver an event synchronously to all AT clients.

        The dispatch cost is charged to the emitting application — this is
        exactly the overhead Figure 2's "index recording" bars measure.
        """
        self.clock.advance_us(self.costs.ax_event_dispatch_us)
        return self.bus.publish(TOPIC, event)
