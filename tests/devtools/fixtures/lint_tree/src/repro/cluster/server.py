"""RL001 allowed idiom: a view reads the state and calls the owner's API."""


class Server:
    @property
    def up(self):
        return bool(self.mirror.up[self.server_id])

    def allocate(self, copy):
        self.mirror.allocate(self.server_id, copy)
